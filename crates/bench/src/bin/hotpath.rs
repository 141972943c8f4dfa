//! Host-speed ratio guard for the simulator's hot paths.
//!
//! Running it is the check: it takes no flags, writes no file, prints eight
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
use regvault_isa::KeyReg;
use regvault_kernel::ProtectionConfig;
use regvault_qarma::{reference::Reference, Key, Qarma64};
use regvault_server::fleet::warm_image;
use regvault_sim::{FaultKind, FaultPlan, Machine, MachineConfig, Snapshot};
use regvault_workloads::{measure_armed, spec::Spec, unixbench::UnixBench, Workload};

/// Interleaved rounds; every side of every ratio runs once per round.
const ROUNDS: usize = 16;

/// Blocks per timed QARMA batch (about a millisecond of reference work).
const QARMA_BLOCKS: u64 = 1024;

/// Published QARMA test-vector inputs; any fixed key and base tweak work.
const W0: u64 = 0x84be85ce9804e94b;
const K0: u64 = 0xec2802d4e0a488e9;
const TWEAK: u64 = 0x477d469dec0b8762;

/// A guarded ratio and the floor it must reach.
struct Guard {
    name: &'static str,
    floor: f64,
}

/// The eight guards, in the order of [`Ratios`]. The range in each comment
/// was measured on a 2-vCPU VM (best of 16 rounds, 8 invocations); its low
/// end is at least 1.3x the floor, so host noise does not trip it.
const GUARDS: [Guard; 8] = [
    // 4.3–5.0x, every block under its own tweak. The SWAR core transforms
    // the whole 64-bit state with table lookups where the reference walks
    // 16 cells one at a time; a datapath that fell back to cell-level code
    // would land near 1x.
    Guard {
        name: "QARMA reference/SWAR ns per block",
        floor: 2.0,
    },
    // 2.60–2.97x. dhry2 is a register-compute loop the superblock tier
    // covers almost entirely (~98% of its instructions): one 11-instruction
    // block that branches back to its own entry and re-runs without the
    // slot probe. Dispatching whole traces instead of single steps keeps
    // the 2x the tier was accepted on; a tier that stops entering or
    // churns its traces falls to about 1x. With the probe on every pass
    // and the interpreter's cheaper fault poll, it measured 1.98–2.27.
    Guard {
        name: "dhry2 tier-on/tier-off steps/s",
        floor: 2.0,
    },
    // 1.63–2.01x. omnetpp and leela are compiled guests: their globals sit
    // on a page of their own, and their loops end blocks in `j` stubs the
    // traces follow, so the tier covers nearly all their instructions and
    // chains block into block. With the globals on the first code page,
    // every store to one drops that page's traces, and the ratio fell to
    // 0.66–0.68 (traces rebuilt faster than they ran). dhry2 above has
    // neither globals nor jumps, so it cannot see that.
    Guard {
        name: "omnetpp+leela tier-on/tier-off steps/s",
        floor: 1.25,
    },
    // 0.69–0.83. A FULL syscall run issues ~7.8k `cre`/`crd`, ~99% of them
    // CLB hits and the misses mostly memo hits, so protection costs the
    // host little beyond the unprotected run. With neither the CLB nor the
    // memo answering, every operation pays a full QARMA block and the ratio
    // falls to ~0.2.
    Guard {
        name: "syscall FULL/off steps/s",
        floor: 0.5,
    },
    // 0.91–1.13. The epoch-rekey mitigation adds one nonce and one 8-byte
    // store per context save and one load per restore, which are a small
    // part of a syscall run, so the ratio sits near 1. The floor is a
    // coarse one: it trips once the mitigation costs the host as much as
    // the whole protected run.
    Guard {
        name: "syscall FULL+rekey/FULL steps/s",
        floor: 0.5,
    },
    // 1.00–1.09. FAULT_PLAN_LEN far-future faults armed against none. A
    // poll is one compare against the plan's earliest pending instret, so
    // an armed plan that never fires costs nothing measurable and the
    // superblock tier keeps running. A clock that rescanned the schedule
    // at every poll (one poll per step, per charged class and per kernel
    // access) paid for all 256 entries each time and measured 0.06.
    Guard {
        name: "syscall FULL+plan/FULL steps/s",
        floor: 0.5,
    },
    // 54.6–62.4x (8 runs). The restore gate's `arch_digest` of a fresh fork
    // of the fleet's 66-page warm image, with every page read in full (a
    // fork of the image decoded from bytes, whose pages start unhashed)
    // against every page's hash memoised by the capture (a plain
    // `fork_from`). The memoised side is only the fixed-size fields and
    // the page sum, one word step each; while they went through a
    // byte-serial chain and a sort of the page list, the ratio read
    // 7.0–13.7. With the memo never kept, both sides read every page and
    // it measured 1.73–1.83x, all of it the decoded side's pages being
    // fresh allocations that miss the cache.
    Guard {
        name: "restore digest unhashed/memoised ns",
        floor: 4.0,
    },
    // 9.6–10.6x (8 runs). The fleet's micro-restore of a killed instance,
    // each dirtied as a kill dirties it (a store to its code page and a
    // key-register write) and gated on its digest: a fresh `fork_from` of
    // the warm image against an in-place `restore` of the killed machine.
    // The fork fills a new decode cache and superblock table (64 KiB each)
    // and re-inserts every page; the restore replaces the one dirty page
    // and clears only the entries the instance filled. A restore that
    // reallocated both tables and re-inserted every page, as a fork does,
    // measured 1.23–1.24x.
    Guard {
        name: "micro-restore fork/in-place ns",
        floor: 2.0,
    },
];

/// Faults in the armed plan of the fault-clock guard.
const FAULT_PLAN_LEN: u64 = 256;

/// Fresh forks digested per timed restore-digest batch.
const DIGEST_FORKS: usize = 8;

/// Micro-restores per timed batch.
const MICRO_RESTORES: usize = 64;

/// The fleet handler's code page, which a chaos kill overwrites.
const FLEET_TEXT: u64 = 0x8000_0000;

/// One value per entry of [`GUARDS`].
type Ratios = [f64; 8];

/// `Ok` when every ratio reaches its floor; otherwise the failing guards,
/// by name. A NaN ratio fails.
fn check(ratios: &Ratios) -> Result<(), String> {
    let failed: Vec<String> = GUARDS
        .iter()
        .zip(ratios)
        .filter(|(guard, ratio)| ratio.is_nan() || **ratio < guard.floor)
        .map(|(guard, ratio)| format!("{} {ratio:.3} < floor {:.2}", guard.name, guard.floor))
        .collect();
    if failed.is_empty() {
        Ok(())
    } else {
        Err(failed.join("; "))
    }
}

/// Blocks per second of one batch of `encrypt(block, tweak)` over distinct
/// inputs, each under its own tweak: the batch's [`QARMA_BLOCKS`] tweaks
/// outnumber the SWAR datapath's 64-slot tweak-schedule cache, so the
/// guard times full schedule expansion, not cached schedules.
fn blocks_per_sec(encrypt: impl Fn(u64, u64) -> u64) -> f64 {
    let start = Instant::now();
    let mut acc = 0u64;
    for block in 0..QARMA_BLOCKS {
        acc ^= encrypt(black_box(block), TWEAK ^ (block << 3));
    }
    black_box(acc);
    QARMA_BLOCKS as f64 / start.elapsed().as_secs_f64()
}

/// Guest steps per second of one run of each workload, boots included,
/// with `plan` armed for every run if given; a run fails the guard when
/// its guest does not compute its expected result.
fn steps_per_sec(
    workloads: &[&dyn Workload],
    protection: ProtectionConfig,
    machine: MachineConfig,
    plan: Option<&FaultPlan>,
) -> f64 {
    let start = Instant::now();
    let mut steps = 0;
    for workload in workloads {
        let run = measure_armed(*workload, protection, machine, plan.cloned())
            .unwrap_or_else(|err| panic!("{} ({}): {err}", workload.name(), protection.label()));
        steps += run.instret;
    }
    steps as f64 / start.elapsed().as_secs_f64()
}

/// Digests per second of [`DIGEST_FORKS`] fresh machines from `fork`, made
/// before the clock starts; a digest other than `digest` fails the guard.
fn digests_per_sec(digest: u64, fork: impl Fn() -> Machine) -> f64 {
    let forks: Vec<Machine> = (0..DIGEST_FORKS).map(|_| fork()).collect();
    let start = Instant::now();
    for machine in &forks {
        assert_eq!(machine.arch_digest(), digest, "restored image digest");
    }
    DIGEST_FORKS as f64 / start.elapsed().as_secs_f64()
}

/// Micro-restores per second of one batch of [`MICRO_RESTORES`]: each
/// dirties the machine as a chaos kill does, recovers it with `recover`,
/// and checks the recovered machine digests as `warm`.
fn restores_per_sec(warm: &Snapshot, recover: impl Fn(&mut Machine)) -> f64 {
    let mut machine = Machine::fork_from(warm).expect("fork");
    let start = Instant::now();
    for _ in 0..MICRO_RESTORES {
        machine
            .memory_mut()
            .write_u64(FLEET_TEXT, 0xDEAD_DEAD_DEAD_DEAD)
            .expect("code page is mapped");
        machine
            .write_key_register(KeyReg::A, 0, 0)
            .expect("software key registers are writable");
        recover(&mut machine);
        assert_eq!(
            machine.arch_digest(),
            warm.digest(),
            "restored image digest"
        );
    }
    MICRO_RESTORES as f64 / start.elapsed().as_secs_f64()
}

/// [`FAULT_PLAN_LEN`] faults, each due at an instret no run reaches.
fn far_future_plan() -> FaultPlan {
    (0..FAULT_PLAN_LEN).fold(FaultPlan::new(), |plan, i| {
        plan.at(u64::MAX - i, FaultKind::ClbPoison { xor: 1 })
    })
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
    let dhry2: &[&dyn Workload] = &[&UnixBench::Dhry2];
    let spec: &[&dyn Workload] = &[&Spec::Omnetpp, &Spec::Leela];
    let syscall: &[&dyn Workload] = &[&UnixBench::Syscall];
    let plan = far_future_plan();
    let warm = warm_image(1);
    let image = warm.to_bytes();
    let fork_unhashed = || {
        let decoded = Snapshot::from_bytes(&image).expect("image decodes");
        Machine::fork_from(&decoded).expect("fork")
    };
    let fork_memoised = || Machine::fork_from(&warm).expect("fork");
    let mut best = [0.0f64; 14];
    for _ in 0..ROUNDS {
        let round = [
            blocks_per_sec(|block, tweak| reference.encrypt(block, tweak)),
            blocks_per_sec(|block, tweak| swar.encrypt(block, tweak)),
            steps_per_sec(dhry2, off, machine, None),
            steps_per_sec(dhry2, off, tier_off, None),
            steps_per_sec(spec, off, machine, None),
            steps_per_sec(spec, off, tier_off, None),
            steps_per_sec(syscall, off, machine, None),
            steps_per_sec(syscall, full, machine, None),
            steps_per_sec(syscall, full, rekey, None),
            steps_per_sec(syscall, full, machine, Some(&plan)),
            digests_per_sec(warm.digest(), fork_unhashed),
            digests_per_sec(warm.digest(), fork_memoised),
            restores_per_sec(&warm, |m| *m = Machine::fork_from(&warm).expect("fork")),
            restores_per_sec(&warm, |m| m.restore(&warm)),
        ];
        for (best, rate) in best.iter_mut().zip(round) {
            *best = best.max(rate);
        }
    }
    let [reference, swar, dhry2_on, dhry2_off, spec_on, spec_off, off, full, rekey, armed, unhashed, memoised, forked, in_place] =
        best;
    [
        swar / reference,
        dhry2_on / dhry2_off,
        spec_on / spec_off,
        full / off,
        rekey / full,
        armed / full,
        memoised / unhashed,
        in_place / forked,
    ]
}

fn main() -> ExitCode {
    parse_env::<()>("hotpath", &[], &mut (), 2);
    let ratios = measure_ratios();
    for (guard, ratio) in GUARDS.iter().zip(ratios) {
        println!(
            "{:<38} {ratio:>6.2}  (floor {:.2})",
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
