//! Perf-trajectory diff: compare freshly regenerated `BENCH_*.json`
//! artifacts against the committed copies and render a markdown delta
//! table (CI pipes it into `$GITHUB_STEP_SUMMARY`).
//!
//! Metrics come in two flavours:
//!
//! * **gated** — deterministic simulated metrics (cycles, overhead
//!   fractions, collision reductions). A regression worse than 10 %
//!   fails the run: these numbers are seed-stable, so any drift is a
//!   real behaviour change, not host noise.
//! * **informational** — host wall-clock metrics (ns, steps/s). They are
//!   shown in the table but never gate, since the committed copies may
//!   have been generated on different hardware.
//!
//! A gated row cannot pass vacuously: it fails when its key is missing on
//! either side, and when the fresh file is not newer than its baseline
//! copy (the baseline is copied aside first, so a file the run did not
//! regenerate would compare the committed numbers with themselves).
//!
//! ```text
//! cargo run --release --bin trajectory -- --baseline <dir> [--fresh <dir>]
//! ```
//!
//! `--baseline <dir>` holds the committed artifacts (CI copies them aside
//! before rerunning the bench bins); `--fresh` defaults to the repo root,
//! where the bench bins write.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::SystemTime;

use regvault_bench::json::find_number;
use regvault_bench::repo_root;
use regvault_cli::args::{self, set, Flag};

/// Whether an increase in the metric is an improvement or a regression.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Direction {
    HigherIsBetter,
    LowerIsBetter,
}

struct Metric {
    file: &'static str,
    key: &'static str,
    direction: Direction,
    gated: bool,
}

/// The trajectory table. Gated rows are deterministic simulated metrics
/// only; wall-clock rows ride along for context.
const METRICS: &[Metric] = &[
    // Supervised serve scenario (deterministic per seed).
    Metric {
        file: "BENCH_serve.json",
        key: "rps_per_mcycle",
        direction: Direction::HigherIsBetter,
        gated: true,
    },
    Metric {
        file: "BENCH_serve.json",
        key: "latency_p99_cycles",
        direction: Direction::LowerIsBetter,
        gated: true,
    },
    // Fleet scenario section (deterministic); host section is wall clock.
    Metric {
        file: "BENCH_fleet.json",
        key: "latency_p99_cycles",
        direction: Direction::LowerIsBetter,
        gated: true,
    },
    Metric {
        file: "BENCH_fleet.json",
        key: "fork_speedup",
        direction: Direction::HigherIsBetter,
        gated: false,
    },
    // Figure 5 overhead geomeans (deterministic simulated cycles).
    Metric {
        file: "BENCH_fig5a_unixbench.json",
        key: "mean_full",
        direction: Direction::LowerIsBetter,
        gated: true,
    },
    Metric {
        file: "BENCH_fig5b_lmbench.json",
        key: "mean_full",
        direction: Direction::LowerIsBetter,
        gated: true,
    },
    Metric {
        file: "BENCH_fig5c_spec.json",
        key: "mean_full",
        direction: Direction::LowerIsBetter,
        gated: true,
    },
    // Leakage campaign (deterministic per seed).
    Metric {
        file: "BENCH_leakage.json",
        key: "overall_reduction",
        direction: Direction::HigherIsBetter,
        gated: true,
    },
    Metric {
        file: "BENCH_leakage.json",
        key: "total_on_collisions",
        direction: Direction::LowerIsBetter,
        gated: true,
    },
    Metric {
        file: "BENCH_leakage.json",
        key: "total_off_collisions",
        direction: Direction::HigherIsBetter,
        gated: false,
    },
];

/// Regression tolerance for gated metrics.
const TOLERANCE: f64 = 0.10;

/// A metric's value in `dir`, with the modification time of its file.
fn load(dir: &Path, metric: &Metric) -> (Option<f64>, Option<SystemTime>) {
    let path = dir.join(metric.file);
    let value = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| find_number(&text, metric.key));
    let modified = std::fs::metadata(&path).and_then(|m| m.modified()).ok();
    (value, modified)
}

struct Dirs {
    baseline: Option<PathBuf>,
    fresh: PathBuf,
}

#[rustfmt::skip]
const FLAGS: &[Flag<Dirs>] = &[
    Flag::value("--baseline", "DIR", "the committed BENCH_*.json, copied aside (required)",
        |d, v| set(&mut d.baseline, Some(PathBuf::from(v)))),
    Flag::value("--fresh", "DIR", "the regenerated BENCH_*.json (default: the repo root)",
        |d, v| set(&mut d.fresh, PathBuf::from(v))),
];

fn main() -> ExitCode {
    let mut dirs = Dirs {
        baseline: None,
        fresh: repo_root(),
    };
    args::parse_env("trajectory", FLAGS, &mut dirs, 1);
    let Some(baseline_dir) = dirs.baseline else {
        let flags = args::usage(FLAGS);
        eprintln!("trajectory: `--baseline` is required\n\ntrajectory flags:\n{flags}");
        return ExitCode::FAILURE;
    };
    let fresh_dir = dirs.fresh;

    println!("## Bench trajectory\n");
    println!("| metric | committed | fresh | delta | status |");
    println!("|---|---:|---:|---:|---|");

    let mut failures = Vec::new();
    for metric in METRICS {
        let label = format!(
            "{}:{}",
            metric
                .file
                .trim_start_matches("BENCH_")
                .trim_end_matches(".json"),
            metric.key
        );
        let (before, before_time) = load(&baseline_dir, metric);
        let (after, after_time) = load(&fresh_dir, metric);
        let (Some(before), Some(after)) = (before, after) else {
            // A missing side (new artifact, renamed key) is reported; a
            // gated row fails on it rather than dropping out of the gate.
            let status = if metric.gated { "**MISSING**" } else { "n/a" };
            println!("| {label} | — | — | — | {status} |");
            if metric.gated {
                failures.push(format!("{label}: key missing on one side"));
            }
            continue;
        };
        if metric.gated && after_time <= before_time {
            println!("| {label} | {before:.4} | {after:.4} | — | **STALE** |");
            failures.push(format!(
                "{label}: {} was not regenerated after the baseline copy",
                metric.file
            ));
            continue;
        }
        // Signed relative change, oriented so positive = improvement.
        let delta = if before.abs() < f64::EPSILON {
            if after.abs() < f64::EPSILON {
                0.0
            } else if metric.direction == Direction::LowerIsBetter {
                -f64::INFINITY
            } else {
                f64::INFINITY
            }
        } else {
            let raw = (after - before) / before.abs();
            match metric.direction {
                Direction::HigherIsBetter => raw,
                Direction::LowerIsBetter => -raw,
            }
        };
        let regressed = metric.gated && delta < -TOLERANCE;
        let status = if regressed {
            "**REGRESSED**"
        } else if metric.gated {
            "ok (gated)"
        } else {
            "info"
        };
        println!(
            "| {label} | {before:.4} | {after:.4} | {:+.1}% | {status} |",
            delta * 100.0
        );
        if regressed {
            failures.push(format!(
                "{label}: {before:.4} -> {after:.4} ({:+.1}%)",
                delta * 100.0
            ));
        }
    }
    println!();

    if failures.is_empty() {
        println!(
            "No gated metric regressed beyond {:.0}%.",
            TOLERANCE * 100.0
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "**{} gated metric(s) failed (regressed beyond {:.0}%, missing, or stale):**\n",
            failures.len(),
            TOLERANCE * 100.0
        );
        for f in &failures {
            println!("- {f}");
            eprintln!("FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}
