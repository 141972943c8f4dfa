//! Host-speed ratio guard for the simulator's hot paths.
//!
//! Running it is the check: it takes no flags, writes no file, prints four
//! ratios next to their floors, and exits 1 when any ratio falls below its
//! floor. Each ratio compares two configurations of this build measured in
//! the same process, interleaved round by round and taken between the best
//! of [`ROUNDS`] runs of each side, so host speed and slow load drift cancel
//! and no number recorded on another machine is involved. Absolute host
//! costs per layer, with their spread, are the repository benchmark's job
//! (`benchmark/`).
//!
//! ```text
//! cargo run --release -p regvault-bench --bin hotpath
//! ```

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use regvault_cli::args::parse_env;
use regvault_kernel::ProtectionConfig;
use regvault_qarma::{reference::Reference, Key, Qarma64};
use regvault_sim::MachineConfig;
use regvault_workloads::{measure_with, unixbench::UnixBench, Workload};

/// Interleaved rounds; every side of every ratio runs once per round.
const ROUNDS: usize = 16;

/// Blocks per timed QARMA batch (about a millisecond of reference work).
const QARMA_BLOCKS: u64 = 1024;

/// Published QARMA test-vector inputs; any fixed key and tweak work.
const W0: u64 = 0x84be85ce9804e94b;
const K0: u64 = 0xec2802d4e0a488e9;
const TWEAK: u64 = 0x477d469dec0b8762;

/// A guarded ratio and the floor it must reach.
struct Guard {
    name: &'static str,
    floor: f64,
}

/// The four guards, in the order of [`Ratios`]. The range in each comment
/// was measured on a 2-vCPU VM (best of 16–32 rounds); its low end is at
/// least 1.3x the floor, so host noise does not trip it.
const GUARDS: [Guard; 4] = [
    // 3.5–6.5x. The SWAR core transforms the whole 64-bit state with table
    // lookups where the reference walks 16 cells one at a time; a datapath
    // that fell back to cell-level code would land near 1x.
    Guard {
        name: "QARMA reference/SWAR ns per block",
        floor: 2.0,
    },
    // 2.6–3.4x. dhry2 is a register-compute loop the superblock tier
    // covers almost entirely (~98% of its instructions), so dispatching
    // fused traces instead of single steps keeps the 2x the tier was
    // accepted on; a tier that stops entering or churns its traces falls
    // to about 1x.
    Guard {
        name: "dhry2 tier-on/tier-off steps/s",
        floor: 2.0,
    },
    // 0.67–0.93. A FULL syscall run issues ~7.8k `cre`/`crd`, ~99% of them
    // CLB hits and the misses mostly memo hits, so protection costs the
    // host little beyond the unprotected run. With neither the CLB nor the
    // memo answering, every operation pays a full QARMA block and the ratio
    // falls to ~0.2.
    Guard {
        name: "syscall FULL/off steps/s",
        floor: 0.5,
    },
    // 0.97–1.4. The epoch-rekey mitigation adds one nonce and one 8-byte
    // store per context save and one load per restore, which are a small
    // part of a syscall run, so the ratio sits near 1. The floor is a
    // coarse one: it trips once the mitigation costs the host as much as
    // the whole protected run.
    Guard {
        name: "syscall FULL+rekey/FULL steps/s",
        floor: 0.5,
    },
];

/// One value per entry of [`GUARDS`].
type Ratios = [f64; 4];

/// `Ok` when every ratio reaches its floor; otherwise the failing guards,
/// by name. A NaN ratio fails.
fn check(ratios: &Ratios) -> Result<(), String> {
    let failed: Vec<String> = GUARDS
        .iter()
        .zip(ratios)
        .filter(|(guard, ratio)| ratio.is_nan() || **ratio < guard.floor)
        .map(|(guard, ratio)| format!("{} {ratio:.3} < floor {:.1}", guard.name, guard.floor))
        .collect();
    if failed.is_empty() {
        Ok(())
    } else {
        Err(failed.join("; "))
    }
}

/// Blocks per second of one batch of `encrypt` over distinct inputs.
fn blocks_per_sec(encrypt: impl Fn(u64) -> u64) -> f64 {
    let start = Instant::now();
    let mut acc = 0u64;
    for block in 0..QARMA_BLOCKS {
        acc ^= encrypt(black_box(block));
    }
    black_box(acc);
    QARMA_BLOCKS as f64 / start.elapsed().as_secs_f64()
}

/// Guest steps per second of one run, boot included; the run fails the
/// guard when the guest does not compute its expected result.
fn steps_per_sec(
    workload: &dyn Workload,
    protection: ProtectionConfig,
    machine: MachineConfig,
) -> f64 {
    let start = Instant::now();
    let run = measure_with(workload, protection, machine)
        .unwrap_or_else(|err| panic!("{} ({}): {err}", workload.name(), protection.label()));
    run.instret as f64 / start.elapsed().as_secs_f64()
}

/// The ratios in [`GUARDS`] order, each between the best runs of its two
/// sides; every side runs once per round.
fn measure_ratios() -> Ratios {
    let key = Key::new(W0, K0);
    let (reference, swar) = (Reference::new(key), Qarma64::new(key));
    let (off, full) = (ProtectionConfig::off(), ProtectionConfig::full());
    let machine = MachineConfig::default();
    let tier_off = MachineConfig {
        superblock_tier: false,
        ..machine
    };
    let rekey = MachineConfig {
        epoch_rekey: true,
        ..machine
    };
    let mut best = [0.0f64; 7];
    for _ in 0..ROUNDS {
        let round = [
            blocks_per_sec(|block| reference.encrypt(block, TWEAK)),
            blocks_per_sec(|block| swar.encrypt(block, TWEAK)),
            steps_per_sec(&UnixBench::Dhry2, off, machine),
            steps_per_sec(&UnixBench::Dhry2, off, tier_off),
            steps_per_sec(&UnixBench::Syscall, off, machine),
            steps_per_sec(&UnixBench::Syscall, full, machine),
            steps_per_sec(&UnixBench::Syscall, full, rekey),
        ];
        for (best, rate) in best.iter_mut().zip(round) {
            *best = best.max(rate);
        }
    }
    let [reference, swar, tier_on, tier_off, off, full, rekey] = best;
    [
        swar / reference,
        tier_on / tier_off,
        full / off,
        rekey / full,
    ]
}

fn main() -> ExitCode {
    parse_env::<()>("hotpath", &[], &mut (), 2);
    let ratios = measure_ratios();
    for (guard, ratio) in GUARDS.iter().zip(ratios) {
        println!(
            "{:<36} {ratio:>6.2}  (floor {:.1})",
            guard.name, guard.floor
        );
    }
    match check(&ratios) {
        Ok(()) => {
            println!("hotpath: OK");
            ExitCode::SUCCESS
        }
        Err(failed) => {
            eprintln!("PERF REGRESSION: {failed}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every floor passes at its value and fails, naming only itself, just
    /// below it; a NaN fails too.
    #[test]
    fn check_fails_just_below_each_floor() {
        let floors: Ratios = GUARDS.map(|guard| guard.floor);
        assert_eq!(check(&floors), Ok(()));
        for (i, guard) in GUARDS.iter().enumerate() {
            for bad in [guard.floor * (1.0 - 1e-9), f64::NAN] {
                let mut ratios = floors;
                ratios[i] = bad;
                let err = check(&ratios).unwrap_err();
                assert!(err.starts_with(guard.name), "{err}");
                assert!(!err.contains(';'), "only {} fails: {err}", guard.name);
            }
        }
    }
}
