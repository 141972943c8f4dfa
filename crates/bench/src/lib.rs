//! Shared helpers for the table/figure regenerator binaries.
//!
//! Each binary under `src/bin/` regenerates one artifact of the paper's
//! evaluation:
//!
//! | binary | artifact |
//! |---|---|
//! | `clb_hit_ratio` | §4.4.1: CLB hit ratio and overhead reduction |
//! | `fig5a_unixbench` | Figure 5a: UnixBench overheads |
//! | `fig5b_lmbench` | Figure 5b: LMbench overheads |
//! | `fig5c_spec` | Figure 5c: SPEC intspeed overheads |
//! | `ablations` | design-choice ablations called out in DESIGN.md (`BENCH_ablations.json`) |
//! | `hotpath` | none: the host-speed ratio guard of DESIGN.md §8 |
//!
//! The `serve` and `fleet` binaries compare three configurations of the
//! scenario `regvault-cli serve`/`fleet` runs once, reusing its report
//! builder and per-run gate; `BENCH_leakage.json` is the output of
//! `regvault-cli leakage --json`. Tables 3 and 4 are `regvault-cli hwcost`
//! and `regvault-cli pentest` with no argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The workspace's JSON writer (re-exported from `regvault-cli`).
pub use regvault_cli::json;

use std::path::PathBuf;

use regvault_workloads::{OverheadRow, Workload};

/// The repository root (two levels above this crate's manifest), where the
/// machine-readable `BENCH_*.json` artifacts live.
#[must_use]
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the repo root")
        .to_path_buf()
}

/// Converts Figure 5 style overhead rows into the JSON shape shared by the
/// `fig5*` binaries: per-workload base cycles and per-config overhead
/// fractions, plus the geometric-mean row.
#[must_use]
pub fn overhead_rows_to_json(figure: &str, rows: &[OverheadRow]) -> json::Value {
    let mut workloads = Vec::new();
    for row in rows {
        let mut obj = vec![
            ("name".to_string(), json::Value::Str(row.name.to_string())),
            ("base_cycles".to_string(), json::Value::Int(row.base_cycles)),
        ];
        for (label, overhead) in &row.overheads {
            obj.push((
                format!("overhead_{}", label.to_lowercase().replace('-', "_")),
                json::Value::Num(*overhead),
            ));
        }
        workloads.push(json::Value::Obj(obj));
    }
    let mut means = Vec::new();
    for label in ["RA", "FP", "NON-CONTROL", "FULL"] {
        means.push((
            format!("mean_{}", label.to_lowercase().replace('-', "_")),
            json::Value::Num(regvault_workloads::mean_overhead(rows, label)),
        ));
    }
    json::Value::Obj(vec![
        ("figure".to_string(), json::Value::Str(figure.to_string())),
        ("workloads".to_string(), json::Value::Arr(workloads)),
        ("geomean".to_string(), json::Value::Obj(means)),
    ])
}

/// Writes a figure's JSON artifact as `BENCH_<stem>.json` at the repo root
/// and reports the path on stdout.
///
/// # Panics
///
/// Panics when the file cannot be written — the harness treats that as a
/// broken checkout.
pub fn write_figure_json(stem: &str, value: &json::Value) {
    let path = repo_root().join(format!("BENCH_{stem}.json"));
    std::fs::write(&path, value.render()).expect("write benchmark JSON");
    println!("wrote {}", path.display());
}

/// Formats an overhead fraction as a `+x.xx%` cell.
#[must_use]
pub fn pct(overhead: f64) -> String {
    format!("{:+6.2}%", overhead * 100.0)
}

/// Prints one Figure 5 style table and returns the rows.
///
/// # Panics
///
/// Panics when a workload fails to run — the harness treats that as a
/// broken build rather than a measurement.
pub fn print_overhead_table(title: &str, workloads: &[&dyn Workload]) -> Vec<OverheadRow> {
    println!("\n=== {title} ===");
    println!(
        "{:<12} {:>14} {:>9} {:>9} {:>12} {:>9}",
        "workload", "base cycles", "RA", "FP", "NON-CONTROL", "FULL"
    );
    let mut rows = Vec::new();
    for workload in workloads {
        let row = regvault_workloads::sweep(*workload, 8)
            .unwrap_or_else(|err| panic!("{} failed: {err}", workload.name()));
        print!("{:<12} {:>14}", row.name, row.base_cycles);
        for (_, overhead) in &row.overheads {
            print!(" {:>9}", pct(*overhead));
        }
        println!();
        rows.push(row);
    }
    println!("{:-<70}", "");
    print!("{:<12} {:>14}", "average", "");
    for label in ["RA", "FP", "NON-CONTROL", "FULL"] {
        let mean = regvault_workloads::mean_overhead(&rows, label);
        print!(" {:>9}", pct(mean));
    }
    println!();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats_signed_percentages() {
        assert_eq!(pct(0.026), " +2.60%");
        assert_eq!(pct(-0.004), " -0.40%");
    }
}
