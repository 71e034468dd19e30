#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs every workload of BENCHMARK.json for its run_seconds, each time
with another seed, in two interleaved sets (A1 B1 A2 B2 ...), and prints
per set each end-to-end metric's median and quartiles
(statistics.quantiles, n=4) and its spread, the quartile distance as a
share of the median. It then reports whether the sets agree: every
spread within its bound, every median of one set within the bound of the
other set's, and the same share of failed operations in both sets.

    python3 e2e-bench/steady.py [--runs 10]

Run it from anywhere; it runs the benchmark command from the repository
root. Exit code 0 when the sets agree, 1 when they do not.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2
# Set s, run i uses seed FIRST_SEED + SEED_STRIDE * s + i.
FIRST_SEED = 1
SEED_STRIDE = 1000


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs failed their checks")
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    # results[set][workload] -> list of result objects
    results = [{w: [] for w in workloads} for _ in range(SETS)]
    for i in range(args.runs):
        for s in range(SETS):
            seed = FIRST_SEED + SEED_STRIDE * s + i
            for w in workloads:
                results[s][w].append(run_once(bench, w, seed, seconds))
                print(f"run {i + 1}/{args.runs} set {s} {w} seed {seed}", file=sys.stderr)

    agree = True
    for w in workloads:
        print(f"\n{w}  ({args.runs} runs per set, {seconds} s each)")
        shares = {
            (sum(r["failed"] for r in results[s][w]), sum(r["attempted"] for r in results[s][w]))
            for s in range(SETS)
        }
        fail_shares = {f / a for f, a in shares}
        if len(fail_shares) > 1:
            agree = False
        print(f"  failed share per set: {sorted(fail_shares)}")
        header = "  {:<14} {:>6}".format("metric", "bound")
        for s in range(SETS):
            header += f" | set {s}: median [q1, q3] spread"
        print(header + " | drift  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            line = f"  {name:<14} {bound:>6.3f}"
            meds = []
            ok = True
            for s in range(SETS):
                vals = [r["metrics"][name]["value"] for r in results[s][w]]
                med, q1, q3, spread = summary(vals)
                meds.append(med)
                line += f" | {med:.5f} [{q1:.5f}, {q3:.5f}] {spread:6.3f}"
                if spread > bound:
                    ok = False
            drift = (max(meds) - min(meds)) / min(meds)
            if drift > bound:
                ok = False
            agree &= ok
            line += f" | {drift:6.3f}  {'ok' if ok else 'UNSTEADY'}"
            print(line)
    print("\nsets agree" if agree else "\nsets DO NOT agree")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
