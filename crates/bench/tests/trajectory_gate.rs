//! The `trajectory` gate in its failing directions: a gated row fails on a
//! regression beyond the 10% tolerance, on a key missing from either side,
//! and on a fresh file that was not rewritten after the baseline copy.

use std::path::{Path, PathBuf};
use std::process::Output;
use std::time::{Duration, SystemTime};

/// Every artifact the trajectory table reads, with the keys it reads.
const ARTIFACTS: &[(&str, &[(&str, f64)])] = &[
    (
        "BENCH_serve.json",
        &[("rps_per_mcycle", 100.0), ("latency_p99_cycles", 5000.0)],
    ),
    (
        "BENCH_fleet.json",
        &[("latency_p99_cycles", 400.0), ("fork_speedup", 40.0)],
    ),
    ("BENCH_fig5a_unixbench.json", &[("mean_full", 0.03)]),
    ("BENCH_fig5b_lmbench.json", &[("mean_full", 0.05)]),
    ("BENCH_fig5c_spec.json", &[("mean_full", 0.01)]),
    (
        "BENCH_leakage.json",
        &[
            ("overall_reduction", 1000.0),
            ("total_on_collisions", 0.0),
            ("total_off_collisions", 1000.0),
        ],
    ),
];

fn dir(name: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("regvault_trajectory_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    std::fs::create_dir_all(&path).expect("create temp dir");
    path
}

/// Writes every artifact into `dir` with modification time `at`;
/// `edit(file, key, value)` may change a value or drop the key (`None`).
fn write_artifacts(dir: &Path, at: SystemTime, edit: impl Fn(&str, &str, f64) -> Option<f64>) {
    for (file, keys) in ARTIFACTS {
        let body: Vec<String> = keys
            .iter()
            .filter_map(|(key, value)| Some(format!("  \"{key}\": {:?}", edit(file, key, *value)?)))
            .collect();
        let path = dir.join(file);
        std::fs::write(&path, format!("{{\n{}\n}}\n", body.join(",\n"))).expect("write");
        std::fs::File::options()
            .write(true)
            .open(&path)
            .and_then(|f| f.set_modified(at))
            .expect("set mtime");
    }
}

fn trajectory(baseline: &Path, fresh: &Path) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_trajectory"))
        .arg("--baseline")
        .arg(baseline)
        .arg("--fresh")
        .arg(fresh)
        .output()
        .expect("trajectory runs")
}

/// Runs the gate on a baseline and a fresh copy with `edit` applied,
/// written ten seconds after the baseline (or before it, when stale).
fn gate(name: &str, stale: bool, edit: impl Fn(&str, &str, f64) -> Option<f64>) -> Output {
    let t0 = SystemTime::now() - Duration::from_secs(3600);
    let baseline = dir(&format!("{name}_baseline"));
    let fresh = dir(&format!("{name}_fresh"));
    write_artifacts(&baseline, t0, |_, _, v| Some(v));
    let ten = Duration::from_secs(10);
    write_artifacts(&fresh, if stale { t0 - ten } else { t0 + ten }, edit);
    let out = trajectory(&baseline, &fresh);
    let _ = std::fs::remove_dir_all(&baseline);
    let _ = std::fs::remove_dir_all(&fresh);
    out
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn in_tolerance_passes() {
    let out = gate("ok", false, |file, key, v| {
        // A 5% throughput dip is inside the 10% ratchet.
        Some(if (file, key) == ("BENCH_serve.json", "rps_per_mcycle") {
            v * 0.95
        } else {
            v
        })
    });
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("ok (gated)"), "{}", stdout(&out));
}

#[test]
fn eleven_percent_regression_fails() {
    let out = gate("regressed", false, |file, key, v| {
        Some(if (file, key) == ("BENCH_serve.json", "rps_per_mcycle") {
            v * 0.89
        } else {
            v
        })
    });
    assert!(!out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("**REGRESSED**"), "{}", stdout(&out));
}

#[test]
fn missing_gated_key_fails() {
    let out = gate("missing", false, |file, key, v| {
        ((file, key) != ("BENCH_fig5b_lmbench.json", "mean_full")).then_some(v)
    });
    assert!(!out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("**MISSING**"), "{}", stdout(&out));
}

#[test]
fn missing_informational_key_does_not_gate() {
    let out = gate("info", false, |file, key, v| {
        ((file, key) != ("BENCH_fleet.json", "fork_speedup")).then_some(v)
    });
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("| n/a |"), "{}", stdout(&out));
}

#[test]
fn stale_fresh_file_fails() {
    // Identical numbers, but the "fresh" files predate the baseline copy:
    // nothing was regenerated, so the comparison would be vacuous.
    let out = gate("stale", true, |_, _, v| Some(v));
    assert!(!out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("**STALE**"), "{}", stdout(&out));
}
