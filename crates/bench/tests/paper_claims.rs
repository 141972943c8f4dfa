//! The paper's §4.4.1 CLB claims and the shape of its Figure 5 as banded
//! tests. The CLB claims are measured through `regvault_workloads::measure`
//! exactly as the `clb_hit_ratio` regenerator measures them: the UnixBench
//! suite, FULL protection against the unprotected kernel, at a given CLB
//! size. The Figure 5 claims come from `regvault_workloads::sweep` with the
//! 8-entry CLB, as the `fig5*` regenerators compute them. Being simulated
//! cycle counts, they also pin that no host-side cache (the QARMA memo
//! under the CLB) moves a simulated cycle.

use regvault_kernel::ProtectionConfig;
use regvault_workloads::{
    lmbench::Lmbench, mean_overhead, measure, spec::Spec, sweep, unixbench::UnixBench, OverheadRow,
    Workload,
};

/// Paper: an 8-entry CLB reaches a 51.7% hit ratio on UnixBench under FULL
/// protection.
const PAPER_CLB8_HIT_RATIO: f64 = 0.517;

/// `(cycles, CLB hits, CLB lookups)` summed over the suite.
fn suite(protection: ProtectionConfig, clb_entries: usize) -> (u64, u64, u64) {
    let (mut cycles, mut hits, mut lookups) = (0, 0, 0);
    for item in UnixBench::ALL {
        let m = measure(&item, protection, clb_entries).expect("workload runs");
        cycles += m.cycles;
        hits += m.clb.hits;
        lookups += m.clb.hits + m.clb.misses;
    }
    (cycles, hits, lookups)
}

/// FULL-protection cycle overhead over the unprotected kernel.
fn full_overhead(clb_entries: usize) -> f64 {
    let (base, _, _) = suite(ProtectionConfig::off(), clb_entries);
    let (full, _, _) = suite(ProtectionConfig::full(), clb_entries);
    full as f64 / base as f64 - 1.0
}

#[test]
fn clb8_hit_ratio_is_within_three_points_of_the_paper() {
    let (_, hits, lookups) = suite(ProtectionConfig::full(), 8);
    let hit_ratio = hits as f64 / lookups as f64;
    assert!(
        (hit_ratio - PAPER_CLB8_HIT_RATIO).abs() <= 0.03,
        "CLB-8 hit ratio {hit_ratio:.4} outside {PAPER_CLB8_HIT_RATIO} +- 0.03"
    );
}

/// Paper: the CLB cuts the FULL-protection UnixBench overhead from 4.5% to
/// 2.6%; the direction must hold.
#[test]
fn clb8_lowers_full_overhead_below_clb0() {
    let (clb0, clb8) = (full_overhead(0), full_overhead(8));
    assert!(
        clb8 < clb0,
        "FULL overhead with CLB-8 {clb8:.4} not below CLB-0 {clb0:.4}"
    );
}

/// Figure 5 rows for `items`: each swept over the baseline and the four
/// protected configurations with the 8-entry CLB.
fn fig5_rows<W: Workload>(items: &[W]) -> Vec<OverheadRow> {
    items
        .iter()
        .map(|item| sweep(item, 8).expect("workload runs"))
        .collect()
}

/// The `config` overhead of the row named `name`.
fn cell(rows: &[OverheadRow], name: &str, config: &str) -> f64 {
    let row = rows
        .iter()
        .find(|row| row.name == name)
        .expect("row present");
    row.overheads
        .iter()
        .find(|(label, _)| *label == config)
        .map(|&(_, overhead)| overhead)
        .expect("config present")
}

/// The name of the row with the largest (`largest`) or smallest FULL
/// overhead.
fn full_extreme(rows: &[OverheadRow], largest: bool) -> &'static str {
    let full = |row: &&OverheadRow| cell(rows, row.name, "FULL");
    let mut sorted: Vec<&OverheadRow> = rows.iter().collect();
    sorted.sort_by(|a, b| full(a).total_cmp(&full(b)));
    let pick = if largest {
        sorted.last()
    } else {
        sorted.first()
    };
    pick.expect("rows present").name
}

/// RA, the dominant single component, averages at least as much as the FP
/// and NON-CONTROL columns.
fn assert_ra_dominates(figure: &str, rows: &[OverheadRow]) {
    let ra = mean_overhead(rows, "RA");
    for other in ["FP", "NON-CONTROL"] {
        let mean = mean_overhead(rows, other);
        assert!(
            ra >= mean,
            "{figure}: RA average {ra:.5} below {other} {mean:.5}"
        );
    }
}

/// Figure 5a: the compute item is untouched, the context-switch item pays
/// the most under FULL, and RA dominates.
#[test]
fn fig5a_unixbench_has_the_papers_shape() {
    let rows = fig5_rows(&UnixBench::ALL);
    let dhry = cell(&rows, "dhry2reg", "FULL");
    assert!(
        dhry < 0.002,
        "dhry2reg FULL overhead {dhry:.5} not below 0.2%"
    );
    assert_eq!(full_extreme(&rows, true), "context1");
    assert_ra_dominates("fig5a", &rows);
}

/// Figure 5b: `lat_ctx` pays the most under FULL, the null syscall the
/// least, and RA dominates.
#[test]
fn fig5b_lmbench_has_the_papers_shape() {
    let rows = fig5_rows(&Lmbench::ALL);
    assert_eq!(full_extreme(&rows, true), "lat_ctx");
    assert_eq!(full_extreme(&rows, false), "null");
    assert_ra_dominates("fig5b", &rows);
}

/// Figure 5c: uninstrumented userspace costs close to nothing; the paper
/// reports a near-zero FULL average.
#[test]
fn fig5c_spec_full_mean_is_near_zero() {
    let rows = fig5_rows(&Spec::ALL);
    let full = mean_overhead(&rows, "FULL");
    assert!(
        full < 0.002,
        "SPEC FULL mean overhead {full:.5} not below 0.2%"
    );
}
