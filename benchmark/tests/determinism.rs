//! Runs the benchmark binary in `--smoke` mode (one setup, one round) and
//! checks that its deterministic section depends on the seed alone.

use std::path::PathBuf;
use std::process::{Command, Output};

use regvault_benchmark::run::{END_TO_END, PER_LAYER};
use regvault_benchmark::workload::Kind;

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_regvault-benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

/// Runs one smoke round and returns (deterministic line, result line).
fn smoke(workload: &str, seed: &str, trace: &str) -> (String, String) {
    let trace_out: PathBuf = [
        env!("CARGO_TARGET_TMPDIR"),
        &format!("{workload}-{seed}-{trace}.trace.json"),
    ]
    .iter()
    .collect();
    let out = benchmark(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--trace",
        trace,
        "--smoke",
        "--trace-out",
        trace_out.to_str().expect("utf-8 path"),
    ]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload}: {stdout}");
    let det = stdout
        .lines()
        .find(|line| line.starts_with("deterministic "))
        .expect("a deterministic section")
        .to_owned();
    let result = stdout.lines().last().expect("a result line").to_owned();
    (det, result)
}

#[test]
fn one_seed_gives_a_byte_identical_deterministic_section() {
    for kind in Kind::ALL {
        let (first, result) = smoke(kind.name(), "42", "0");
        let (second, _) = smoke(kind.name(), "42", "0");
        assert_eq!(first, second, "{}", kind.name());
        assert!(result.starts_with("{\"correct\": true,\"attempted\": "));
        for (name, unit) in END_TO_END {
            assert!(
                result.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name} missing"
            );
            assert!(result.contains(&format!("\"unit\": \"{unit}\"")));
        }
    }
}

#[test]
fn another_seed_changes_serve_and_fleet_counts_and_checks_still_pass() {
    for kind in [Kind::ServeFaults, Kind::FleetCalm, Kind::FleetChaos] {
        // `smoke` asserts a zero exit status: every check, the accounting
        // identities included, held on both seeds.
        let (a, _) = smoke(kind.name(), "42", "0");
        let (b, _) = smoke(kind.name(), "43", "0");
        assert_ne!(a, b, "{}", kind.name());
    }
}

#[test]
fn a_traced_run_reports_the_untraced_run_s_deterministic_section() {
    for kind in Kind::ALL {
        let (untraced, _) = smoke(kind.name(), "7", "0");
        let (traced, result) = smoke(kind.name(), "7", "1");
        assert_eq!(untraced, traced, "{}", kind.name());
        for (name, _) in PER_LAYER {
            assert!(
                result.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name} missing"
            );
        }
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"][..],
        &["--workload", "fleet-calm", "--trace", "2"][..],
        &["--workload", "fleet-calm", "--seed"][..],
        &["--workload", "fleet-calm", "--bogus", "1"][..],
    ] {
        let out = benchmark(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let listed = text.matches("\"unit\": ").count();
    assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} ({unit}) missing from BENCHMARK.json"
        );
    }
    for kind in Kind::ALL {
        assert!(text.contains(&format!("\"name\": \"{}\", \"why\": ", kind.name())));
    }
}
