//! Floor on the host-side QARMA memo's hit share: the UnixBench and LMbench
//! suites, each under FULL and under FULL with the epoch-rekey mitigation
//! (which folds a fresh nonce into every saved frame's tweak, so fewer
//! inputs repeat). Measured at 0.94–0.95 under FULL and 0.72–0.75 under
//! FULL+rekey; the floor is 0.70 per cell.
//!
//! Each cell runs on a fresh thread, so it starts with an empty memo and
//! counts only its own lookups. Every memo miss runs QARMA once, and every
//! QARMA block consults the tweak-schedule cache once, so the cache's
//! lookups must equal the memo's misses exactly; its hit share is printed
//! next to the memo's.

use std::thread;

use regvault_kernel::ProtectionConfig;
use regvault_qarma::tweak_cache_counts;
use regvault_sim::{memo_counts, MachineConfig};
use regvault_workloads::{lmbench::Lmbench, measure_with, unixbench::UnixBench, Workload};

const FLOOR: f64 = 0.70;

/// `(hits, lookups)` of the memo and of the tweak-schedule cache, in that
/// order, over one run of every guest in `items`, each on a freshly booted
/// kernel with the 8-entry CLB.
fn suite_counts<W: Workload>(items: &[W], rekey: bool) -> [(u64, u64); 2] {
    let start = [memo_counts(), tweak_cache_counts()];
    let machine = MachineConfig {
        clb_entries: 8,
        epoch_rekey: rekey,
        ..MachineConfig::default()
    };
    for item in items {
        // Fails on a wrong result as well as on a kernel error.
        measure_with(item, ProtectionConfig::full(), machine)
            .unwrap_or_else(|err| panic!("{}: {err}", item.name()));
    }
    let end = [memo_counts(), tweak_cache_counts()];
    [0, 1].map(|i| (end[i].0 - start[i].0, end[i].1 - start[i].1))
}

/// The hit shares of the memo and of the tweak-schedule cache over `items`
/// under FULL (`rekey` off) or FULL+rekey, measured on a new thread.
fn share<W: Workload + Sync>(items: &'static [W], rekey: bool) -> (f64, f64) {
    let [(hits, lookups), (tweak_hits, tweak_lookups)] =
        thread::spawn(move || suite_counts(items, rekey))
            .join()
            .expect("suite thread");
    assert!(lookups > 0, "the suite ran no QARMA on the SWAR datapath");
    assert_eq!(
        tweak_lookups,
        lookups - hits,
        "every memo miss runs QARMA, which consults the tweak cache once"
    );
    (
        hits as f64 / lookups as f64,
        tweak_hits as f64 / tweak_lookups.max(1) as f64,
    )
}

#[test]
fn memo_hit_share_holds_under_full_and_full_rekey() {
    for rekey in [false, true] {
        let config = if rekey { "FULL+rekey" } else { "FULL" };
        for (suite, (share, tweak_share)) in [
            ("UnixBench", share(&UnixBench::ALL, rekey)),
            ("LMbench", share(&Lmbench::ALL, rekey)),
        ] {
            println!(
                "{suite} {config}: memo hit share {share:.3}, \
                 tweak-cache hit share {tweak_share:.3}"
            );
            assert!(
                share >= FLOOR,
                "{suite} {config}: memo hit share {share:.3} below {FLOOR}"
            );
        }
    }
}

/// The counters of both tables are per thread: a new thread sees none of
/// another thread's lookups.
#[test]
fn memo_counts_are_per_thread() {
    share(&UnixBench::ALL[..1], false);
    assert_eq!(thread::spawn(memo_counts).join().expect("thread"), (0, 0));
    assert_eq!(
        thread::spawn(tweak_cache_counts).join().expect("thread"),
        (0, 0)
    );
}
