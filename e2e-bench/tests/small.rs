//! Runs every workload at small size, in all four connector
//! configurations and with every output check, on a seed other than the
//! default, untraced and traced. Each run must pass its checks and print
//! every metric BENCHMARK.json names for its mode.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["vpic_write", "bdcats_read", "chunk_meta"];
const SEED: &str = "7";

/// The metric names of one section of BENCHMARK.json (read as text: the
/// benchmark has no JSON parser and needs none for this).
fn metric_names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section is a list");
    body[..end]
        .split("\"name\":")
        .skip(1)
        .map(|s| {
            s.trim()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap()
                .to_owned()
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_e2e-bench"))
        .args(["--workload", workload, "--seed", SEED, "--seconds", "0"])
        .args(["--trace", trace, "--small"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_owned()
}

#[test]
fn every_workload_passes_its_checks_and_prints_every_metric() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let names = metric_names(section);
        assert!(!names.is_empty());
        for workload in WORKLOADS {
            let line = run(workload, trace);
            assert!(
                line.starts_with("{\"correct\": true,"),
                "{workload}: {line}"
            );
            assert!(line.contains("\"failed\": 0,"), "{workload}: {line}");
            for name in &names {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload} --trace {trace} lacks {name}"
                );
            }
            let printed = line.matches("\"value\"").count();
            assert_eq!(printed, names.len(), "{workload} prints extra metrics");
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--seed", "1", "--seconds", "0", "--trace", "0"][..],
        &["--workload", "nope", "--seed", "1", "--seconds", "0", "--trace", "0"],
        &["--workload", "chunk_meta", "--seed", "1", "--seconds", "0", "--trace", "2"],
        &["--workload", "chunk_meta", "--seconds", "0", "--trace", "0"],
        &["--workload", "chunk_meta", "--seed", "1", "--trace", "0"],
        &["--workload", "chunk_meta", "--seed", "1", "--seconds", "0"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_e2e-bench"))
            .args(args)
            .output()
            .expect("benchmark runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
