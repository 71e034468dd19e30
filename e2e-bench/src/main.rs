//! End-to-end benchmark of the h5lite/asyncvol stack.
//!
//! ```text
//! e2e-bench --workload <vpic_write|bdcats_read|chunk_meta> --seed <n>
//!           --seconds <s> --trace <0|1> [--small]
//! ```
//!
//! Each round generates the workload's inputs from the seed, then runs
//! the timed body under the sync, async, ring and staged connector
//! configurations in turn, checking every output. Rounds repeat until
//! `--seconds` have passed. The last line of standard output is one JSON
//! object: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See README.md for the workloads and metrics.

mod cpu;
mod report;
mod rig;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use h5lite::Container;
use report::{ConfigRun, Counters, Layer, Round};
use rig::{Cfg, Probe};
use workloads::{BdcatsRead, ChunkMeta, VpicWrite, Workload};

const USAGE: &str = "usage: e2e-bench --workload <vpic_write|bdcats_read|chunk_meta> \
                     --seed <n> --seconds <s> --trace <0|1> [--small]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    small: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut small = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--small" {
            small = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        small,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Before the first connector starts a thread: every thread inherits it.
    match cpu::pin_to_one() {
        Ok(cpu) => eprintln!("pinned to cpu {cpu}"),
        Err(e) => {
            eprintln!("cannot pin to one cpu: {e}");
            return ExitCode::FAILURE;
        }
    }
    let rounds = match args.workload.as_str() {
        "vpic_write" => drive(&VpicWrite::sized(args.small), &args),
        "bdcats_read" => drive(&BdcatsRead::sized(args.small), &args),
        "chunk_meta" => drive(&ChunkMeta::sized(args.small), &args),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let summary = report::summarize(&args.workload, &rounds, args.trace);
    println!("{}", summary.json);
    if summary.ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run whole rounds until `--seconds` have passed. Traced runs alternate
/// untraced and traced rounds, so one run yields both the per-layer
/// figures and the untraced times the tracing overhead is taken against.
fn drive<W: Workload>(w: &W, args: &Args) -> Vec<Round> {
    let start = Instant::now();
    let min_rounds = if args.trace { 2 } else { 1 };
    let mut rounds = Vec::new();
    while rounds.len() < min_rounds || start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && rounds.len() % 2 == 1;
        rounds.push(round(w, args.seed, traced));
    }
    rounds
}

fn round<W: Workload>(w: &W, seed: u64, traced: bool) -> Round {
    let t = Instant::now();
    let inputs = w.generate(seed);
    let mut setup_s = t.elapsed().as_secs_f64();
    let configs = Cfg::ALL.map(|cfg| {
        let (prep_s, run) = run_config(w, &inputs, cfg, traced);
        setup_s += prep_s;
        run
    });
    Round {
        traced,
        epochs: w.epochs(),
        compute_s: w.compute_s(),
        setup_s,
        configs,
    }
}

/// Set up one configuration, run its timed body, then check it. Returns
/// the set-up seconds and the run's record.
fn run_config<W: Workload>(w: &W, inputs: &W::Inputs, cfg: Cfg, traced: bool) -> (f64, ConfigRun) {
    let mut run = ConfigRun::default();
    let t = Instant::now();
    let rig = match w.prepare(inputs, cfg, traced) {
        Ok(rig) => rig,
        Err(e) => {
            // Set-up calls the program too: its failure is a failed
            // operation, not a silent skip.
            run.attempted = 1;
            run.failed = 1;
            run.error = Some(format!("{} set-up: {e}", cfg.name()));
            return (t.elapsed().as_secs_f64(), run);
        }
    };
    let setup_s = t.elapsed().as_secs_f64();

    let before = Counters::take(&rig);
    let mut probe = Probe::new(traced);
    let t0 = Instant::now();
    let out = w.run(inputs, &rig, &mut probe);
    run.app_s = t0.elapsed().as_secs_f64();
    let after = Counters::take(&rig);
    run.io_s = probe.io_s;
    run.attempted = probe.attempted;
    run.failed = probe.failed;
    if traced {
        run.layer = Some(Layer::new(&probe, before, after));
    }
    let out = match out {
        Ok(out) => out,
        Err(e) => {
            run.error = Some(format!("{}: operation failed: {e}", cfg.name()));
            return (setup_s, run);
        }
    };
    if let Err(e) = check(w, inputs, &out, rig, before, after) {
        run.error = Some(format!("{}: {e}", cfg.name()));
        run.incorrect = true;
    }
    (setup_s, run)
}

/// The program's own invariants, then the workload's output checks on
/// the container reopened from its device bytes.
fn check<W: Workload>(
    w: &W,
    inputs: &W::Inputs,
    out: &W::Out,
    rig: rig::Rig,
    before: Counters,
    after: Counters,
) -> Result<(), String> {
    if rig.vol.is_some() {
        let writes = after.vol.writes - before.vol.writes;
        if writes != w.writes() {
            return Err(format!(
                "stats().writes moved by {writes}, {} issued",
                w.writes()
            ));
        }
    }
    if after.vol.retries != 0 || after.vol.degraded_writes != 0 {
        return Err(format!(
            "retries {} and degraded_writes {} must be 0",
            after.vol.retries, after.vol.degraded_writes
        ));
    }
    let reopened = rig.close_and_reopen().map_err(|e| format!("reopen: {e}"))?;
    w.check(inputs, out, &reopened)?;
    let container: &Container = reopened.container();
    let scrub = container.scrub().map_err(|e| format!("scrub: {e}"))?;
    if scrub.corrupt != 0 || scrub.checked == 0 {
        return Err(format!(
            "scrub found {} corrupt of {} extents",
            scrub.corrupt, scrub.checked
        ));
    }
    Ok(())
}
