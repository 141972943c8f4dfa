//! The paper's §4.4.1 CLB claims as banded tests, measured through
//! `regvault_workloads::measure` exactly as the `clb_hit_ratio` regenerator
//! measures them: the UnixBench suite, FULL protection against the
//! unprotected kernel, at a given CLB size.

use regvault_kernel::ProtectionConfig;
use regvault_workloads::{measure, unixbench::UnixBench};

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
