//! Copy-on-write fork properties and the micro-reboot equivalence
//! regression:
//!
//! * N machines forked from one snapshot are fully isolated — each fork
//!   sees exactly its own writes, under any interleaving;
//! * a fork that never writes stays bit-for-bit identical to the parent
//!   image (its architectural digest equals the snapshot's);
//! * a micro-rebooted machine (restored in place from the warm snapshot
//!   after running and being corrupted) is indistinguishable from a
//!   machine freshly forked from the same snapshot: identical step results
//!   and architectural digests over a 10k-step lockstep run;
//! * microarchitectural state (superblock tier, decode cache) resets
//!   across a restore and re-warms without architectural effect;
//! * the per-page hash memo never goes stale: under any interleaving of
//!   stores, clones, snapshots, restores, forks and byte round trips, every
//!   machine digests exactly as a fork of its own image decoded from bytes
//!   (whose pages start unhashed);
//! * an in-place restore is a fork: after any history of stores (code
//!   pages and new pages included), tier runs, clones and snapshots,
//!   `restore(&s)` leaves exactly the machine `fork_from(&s)` builds, and
//!   the two then co-run in lockstep.

use proptest::prelude::*;
use regvault_isa::{asm, KeyReg, Reg};
use regvault_sim::{run_lockstep, Machine, MachineConfig, Snapshot, SuperblockStats, PAGE_SIZE};

const TEXT_BASE: u64 = 0x8000_0000;
const DATA_BASE: u64 = 0x9000;
const DATA_SLOTS: u64 = 256;

/// The crypto round-trip loop, `iters` rounds of `step` each.
fn round_trip_loop(iters: u64, step: u64) -> Vec<u8> {
    asm::assemble(&format!(
        "li   t1, 0x9000
         li   s0, 0x9000
         li   s2, {iters}
loop:
         creak a0, a0[3:0], t1
         sd   a0, 0(s0)
         ld   a1, 0(s0)
         crdak a1, a1, t1, [3:0]
         addi a0, a1, {step}
         addi s2, s2, -1
         blt  zero, s2, loop
         ebreak"
    ))
    .expect("loop assembles")
    .bytes()
    .to_vec()
}

/// A warm parent: keys programmed, data region mapped and zeroed, a
/// crypto round-trip loop loaded and run once to the break.
fn warm_machine(seed: u64, iters: u64) -> Machine {
    let program = round_trip_loop(iters, 1);
    let mut machine = Machine::new(MachineConfig {
        seed,
        ..MachineConfig::default()
    });
    machine
        .write_key_register(KeyReg::A, seed | 1, seed.rotate_left(17) | 1)
        .expect("general key");
    for slot in 0..DATA_SLOTS {
        machine
            .memory_mut()
            .write_u64(DATA_BASE + slot * 8, 0)
            .expect("data region maps");
    }
    machine.load_program(TEXT_BASE, &program);
    machine.hart_mut().set_pc(TEXT_BASE);
    machine
}

proptest! {
    /// Forks are isolated: each of N forks sees exactly its own writes
    /// (tagged by fork index), no matter how writes interleave, and a fork
    /// that never wrote still matches the parent image bit-for-bit.
    #[test]
    fn forks_are_isolated_under_interleaved_writes(
        seed in any::<u64>(),
        forks in 2usize..6,
        writes in prop::collection::vec((0..6usize, 0..DATA_SLOTS, any::<u64>()), 1..64),
    ) {
        let mut parent = warm_machine(seed, 4);
        parent.hart_mut().set_reg(Reg::A0, 0x5EED);
        parent.run_until_break(10_000).expect("warm run");
        let snap = parent.snapshot();

        let mut fleet: Vec<Machine> = (0..forks)
            .map(|_| Machine::fork_from(&snap).expect("fork"))
            .collect();
        // One extra fork that never writes: the bit-for-bit control.
        let untouched = Machine::fork_from(&snap).expect("control fork");

        for &(who, slot, value) in &writes {
            let who = who % forks;
            // Tag the value with the writer so collisions are detectable.
            let tagged = value ^ (who as u64).rotate_left(56);
            fleet[who]
                .memory_mut()
                .write_u64(DATA_BASE + slot * 8, tagged)
                .expect("fork write");
        }

        // Replay the log per fork to compute what each one must see.
        for (who, fork) in fleet.iter().enumerate() {
            let mut expected = vec![None; DATA_SLOTS as usize];
            for &(w, slot, value) in &writes {
                if w % forks == who {
                    expected[slot as usize] = Some(value ^ (who as u64).rotate_left(56));
                }
            }
            for (slot, want) in expected.iter().enumerate() {
                let addr = DATA_BASE + slot as u64 * 8;
                let got = fork.memory().read_u64(addr).expect("fork read");
                match want {
                    Some(v) => prop_assert_eq!(got, *v, "fork {} slot {}", who, slot),
                    None => {
                        let parent_val = untouched.memory().read_u64(addr).expect("read");
                        prop_assert_eq!(got, parent_val, "fork {} slot {} must stay parent's", who, slot);
                    }
                }
            }
        }

        // The control fork never wrote: still the parent image, exactly.
        prop_assert_eq!(untouched.arch_digest(), snap.digest());
        prop_assert_eq!(untouched.arch_digest(), parent.arch_digest());
        prop_assert_eq!(untouched.cow_dirty_pages(&snap), 0);
        // And it still shares every page with the parent (CoW, not copies).
        prop_assert_eq!(
            untouched.memory().shared_pages_with(parent.memory()),
            snap.page_count()
        );
    }
}

/// One step of the memo property below. Machine and snapshot indices wrap
/// around their pool's current size.
#[derive(Debug, Clone)]
enum Op {
    WriteU8 {
        who: usize,
        addr: u64,
        value: u8,
    },
    WriteU64 {
        who: usize,
        addr: u64,
        value: u64,
    },
    WriteSlice {
        who: usize,
        addr: u64,
        len: usize,
        fill: u8,
    },
    Clone {
        who: usize,
    },
    Snapshot {
        who: usize,
    },
    Restore {
        who: usize,
        snap: usize,
    },
    Fork {
        snap: usize,
    },
    RoundTrip {
        snap: usize,
    },
}

/// Most pool entries a run keeps; a clone or fork past it replaces one.
const POOL: usize = 4;

/// Addresses in and around three data pages, page-straddling ones often.
fn data_addr() -> impl Strategy<Value = u64> {
    prop_oneof![
        (0..3 * PAGE_SIZE).prop_map(|off| DATA_BASE + off),
        (1..4u64, 0..16u64).prop_map(|(page, back)| DATA_BASE + page * PAGE_SIZE - 1 - back),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    let who = 0..POOL;
    prop_oneof![
        (who.clone(), data_addr(), any::<u8>()).prop_map(|(who, addr, value)| Op::WriteU8 {
            who,
            addr,
            value
        }),
        (who.clone(), data_addr(), any::<u64>()).prop_map(|(who, addr, value)| Op::WriteU64 {
            who,
            addr,
            value
        }),
        (who.clone(), data_addr(), 1..6000usize, any::<u8>()).prop_map(|(who, addr, len, fill)| {
            Op::WriteSlice {
                who,
                addr,
                len,
                fill,
            }
        }),
        who.clone().prop_map(|who| Op::Clone { who }),
        who.clone().prop_map(|who| Op::Snapshot { who }),
        (who.clone(), 0..POOL).prop_map(|(who, snap)| Op::Restore { who, snap }),
        (0..POOL).prop_map(|snap| Op::Fork { snap }),
        (0..POOL).prop_map(|snap| Op::RoundTrip { snap }),
    ]
}

/// Pushes `item`, or replaces entry `at` once the pool is full.
fn admit<T>(pool: &mut Vec<T>, at: usize, item: T) {
    if pool.len() < POOL {
        pool.push(item);
    } else {
        pool[at % POOL] = item;
    }
}

/// The digest of `machine` recomputed from scratch: a fork of its image
/// after a byte round trip, so every page is hashed afresh.
fn unhashed_digest(machine: &Machine) -> u64 {
    let decoded = Snapshot::from_bytes(&machine.snapshot().to_bytes()).expect("image decodes");
    Machine::fork_from(&decoded).expect("fork").arch_digest()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The page-hash memo is exact: after every operation each machine's
    /// digest equals its unhashed digest, and each snapshot's forks still
    /// digest as recorded.
    #[test]
    fn memoised_digests_match_unhashed_digests(
        seed in any::<u64>(),
        ops in prop::collection::vec(op(), 1..24),
    ) {
        let mut parent = warm_machine(seed, 4);
        parent.run_until_break(10_000).expect("warm run");
        let mut machines = vec![parent];
        let mut snaps = vec![machines[0].snapshot()];
        for (step, op) in ops.iter().enumerate() {
            let pick = |who: usize| who % machines.len();
            match *op {
                Op::WriteU8 { who, addr, value } => {
                    let m = pick(who);
                    machines[m].memory_mut().write_u8(addr, value).expect("store");
                }
                Op::WriteU64 { who, addr, value } => {
                    let m = pick(who);
                    machines[m].memory_mut().write_u64(addr, value).expect("store");
                }
                Op::WriteSlice { who, addr, len, fill } => {
                    let bytes: Vec<u8> = (0..len).map(|i| fill ^ i as u8).collect();
                    let m = pick(who);
                    machines[m].memory_mut().write_slice(addr, &bytes);
                }
                Op::Clone { who } => {
                    let clone = machines[pick(who)].clone();
                    admit(&mut machines, who + 1, clone);
                }
                Op::Snapshot { who } => {
                    let snap = machines[pick(who)].snapshot();
                    admit(&mut snaps, who, snap);
                }
                Op::Restore { who, snap } => {
                    let m = pick(who);
                    machines[m].restore(&snaps[snap % snaps.len()]);
                }
                Op::Fork { snap } => {
                    let fork = Machine::fork_from(&snaps[snap % snaps.len()]).expect("fork");
                    admit(&mut machines, snap + 1, fork);
                }
                Op::RoundTrip { snap } => {
                    let s = snap % snaps.len();
                    snaps[s] = Snapshot::from_bytes(&snaps[s].to_bytes()).expect("decodes");
                }
            }
            for (i, machine) in machines.iter().enumerate() {
                prop_assert_eq!(
                    machine.arch_digest(),
                    unhashed_digest(machine),
                    "machine {} after step {}: {:?}", i, step, op
                );
            }
            for (i, snap) in snaps.iter().enumerate() {
                let fork = Machine::fork_from(snap).expect("fork");
                prop_assert_eq!(fork.arch_digest(), snap.digest(), "snapshot {} after step {}", i, step);
            }
        }
    }
}

/// One step of the restore-equivalence property below. Machine and
/// snapshot indices wrap around their pool's current size.
#[derive(Debug, Clone)]
enum RestoreOp {
    /// A store to a data page, a page the warm image lacks, or the code
    /// page's tail.
    Store {
        who: usize,
        addr: u64,
        value: u64,
    },
    /// Rewrites the code page with another loop.
    Code {
        who: usize,
        iters: u64,
        step: u64,
    },
    /// Runs the code page's loop through the superblock tier.
    Run {
        who: usize,
        payload: u64,
    },
    Clone {
        who: usize,
    },
    Snapshot {
        who: usize,
    },
    /// The checked operation.
    Restore {
        who: usize,
        snap: usize,
    },
}

fn restore_op() -> impl Strategy<Value = RestoreOp> {
    let who = 0..POOL;
    let addr = prop_oneof![
        (0..2 * PAGE_SIZE / 8).prop_map(|slot| DATA_BASE + slot * 8),
        (0..3u64, 0..PAGE_SIZE / 8).prop_map(|(page, slot)| 0x4_0000 + page * PAGE_SIZE + slot * 8),
        (PAGE_SIZE / 16..PAGE_SIZE / 8).prop_map(|slot| TEXT_BASE + slot * 8),
    ];
    prop_oneof![
        (who.clone(), addr, any::<u64>()).prop_map(|(who, addr, value)| RestoreOp::Store {
            who,
            addr,
            value
        }),
        (who.clone(), 2..24u64, 1..4u64).prop_map(|(who, iters, step)| RestoreOp::Code {
            who,
            iters,
            step
        }),
        (who.clone(), any::<u64>()).prop_map(|(who, payload)| RestoreOp::Run { who, payload }),
        who.clone().prop_map(|who| RestoreOp::Clone { who }),
        who.clone().prop_map(|who| RestoreOp::Snapshot { who }),
        (who.clone(), 0..POOL).prop_map(|(who, snap)| RestoreOp::Restore { who, snap }),
    ]
}

/// Sets `machine` to run the code page's loop from its entry on `payload`.
fn start(machine: &mut Machine, payload: u64) {
    machine.hart_mut().set_pc(TEXT_BASE);
    machine.hart_mut().set_reg(Reg::A0, payload & 0x0FFF_FFFF);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `restore(&s)` in place equals `fork_from(&s)`: the same digest (the
    /// recorded one), the same snapshot (page set, generations, contents
    /// and every other field), every page shared with `s`, no superblock
    /// state left, and the two machines then co-run from the loop entry,
    /// the restored one through the tier, without a divergence.
    #[test]
    fn in_place_restore_equals_a_fork(
        seed in any::<u64>(),
        ops in prop::collection::vec(restore_op(), 1..24),
    ) {
        let mut parent = warm_machine(seed, 6);
        parent.run_until_break(10_000).expect("warm run");
        let mut machines = vec![parent];
        let mut snaps = vec![machines[0].snapshot()];
        for (step, op) in ops.iter().enumerate() {
            let pick = |who: usize| who % machines.len();
            match *op {
                RestoreOp::Store { who, addr, value } => {
                    let m = pick(who);
                    machines[m].memory_mut().write_u64(addr, value).expect("store");
                }
                RestoreOp::Code { who, iters, step } => {
                    let m = pick(who);
                    machines[m].load_program(TEXT_BASE, &round_trip_loop(iters, step));
                }
                RestoreOp::Run { who, payload } => {
                    let m = pick(who);
                    start(&mut machines[m], payload);
                    // A store into the code page's tail may have left the
                    // loop anything; the run only has to stop.
                    let _ = machines[m].run(5_000);
                }
                RestoreOp::Clone { who } => {
                    let clone = machines[pick(who)].clone();
                    admit(&mut machines, who + 1, clone);
                }
                RestoreOp::Snapshot { who } => {
                    let snap = machines[pick(who)].snapshot();
                    admit(&mut snaps, who, snap);
                }
                RestoreOp::Restore { who, snap } => {
                    let (m, s) = (pick(who), &snaps[snap % snaps.len()]);
                    machines[m].restore(s);
                    let mut fork = Machine::fork_from(s).expect("fork");
                    let restored = &mut machines[m];
                    prop_assert_eq!(restored.arch_digest(), s.digest(), "step {}", step);
                    prop_assert_eq!(fork.arch_digest(), s.digest());
                    prop_assert_eq!(restored.snapshot(), fork.snapshot(), "step {}", step);
                    prop_assert_eq!(restored.cow_dirty_pages(s), 0);
                    prop_assert_eq!(
                        restored.memory().shared_pages_with(fork.memory()),
                        s.page_count()
                    );
                    prop_assert_eq!(restored.superblock_stats(), SuperblockStats::default());
                    start(restored, seed);
                    start(&mut fork, seed);
                    let outcome = run_lockstep(restored, &mut fork, 5_000, 64);
                    prop_assert!(outcome.agreed(), "step {}: {:?}", step, outcome.divergence);
                }
            }
        }
    }
}

/// The micro-reboot regression: a machine that ran past the warm point,
/// got corrupted, and was restored in place from the warm snapshot (as
/// the fleet's micro-restore does) must be bit-for-bit equivalent to a
/// machine freshly forked from that same snapshot — identical step results
/// and architectural digests over a 10k-step lockstep run.
#[test]
fn micro_reboot_is_bit_for_bit_equivalent_to_fresh_restore() {
    let mut parent = warm_machine(7, 4_000);
    parent.hart_mut().set_reg(Reg::A0, 0xBEEF);
    let warm = parent.snapshot();

    // The "crashed" instance: runs a while, then gets scribbled on.
    let mut crashed = Machine::fork_from(&warm).expect("fork");
    // The budget ends mid-loop by design: we want a partially-run machine.
    let _ = crashed.run(2_500);
    crashed
        .memory_mut()
        .write_u64(TEXT_BASE, 0xDEAD_DEAD_DEAD_DEAD)
        .expect("corrupt code page");
    let _ = crashed.write_key_register(KeyReg::A, 0, 0);

    // Micro-reboot: restore the wreck in place from the warm image.
    assert!(
        crashed.superblock_stats().hits > 0,
        "the wreck ran in the tier"
    );
    crashed.restore(&warm);
    let mut rebooted = crashed;
    assert_eq!(
        rebooted.arch_digest(),
        warm.digest(),
        "restore-integrity check"
    );
    // Microarchitectural state must not leak across the reboot.
    let sb = rebooted.superblock_stats();
    assert_eq!(sb.hits, 0, "superblock tier resets across restore");

    // The reference: a fresh fork of the warm image.
    let mut fresh = Machine::fork_from(&warm).expect("fresh fork");

    let mut steps = 0u64;
    while steps < 10_000 {
        let a = rebooted.step();
        let b = fresh.step();
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "step {steps}: rebooted and fresh diverged"
        );
        steps += 1;
        if steps.is_multiple_of(1_000) {
            assert_eq!(
                rebooted.arch_digest(),
                fresh.arch_digest(),
                "digest divergence at step {steps}"
            );
        }
        if !matches!(a, Ok(None)) {
            break;
        }
    }
    assert!(
        steps >= 10_000,
        "loop body must sustain 10k lockstep steps, got {steps}"
    );
    assert_eq!(rebooted.arch_digest(), fresh.arch_digest());

    // Run both to the break through the batch path (single-stepping above
    // bypasses the superblock tier by design): the tier re-warms on the
    // rebooted machine with no architectural effect.
    rebooted
        .run_until_break(1_000_000)
        .expect("rebooted finishes");
    fresh.run_until_break(1_000_000).expect("fresh finishes");
    assert_eq!(rebooted.arch_digest(), fresh.arch_digest());
    assert!(
        rebooted.superblock_stats().hits > 0,
        "hot loop re-enters the superblock tier after restore"
    );
}

/// Forking is O(shared pointers): the fork shares every page with the
/// snapshot until written, and writing one page dirties exactly one.
#[test]
fn fork_copies_nothing_until_written() {
    let mut parent = warm_machine(3, 4);
    parent.hart_mut().set_reg(Reg::A0, 1);
    parent.run_until_break(10_000).expect("warm run");
    let snap = parent.snapshot();

    let mut fork = Machine::fork_from(&snap).expect("fork");
    assert_eq!(fork.cow_dirty_pages(&snap), 0);
    // Slot 1 — the warm loop only touches slot 0 as its scratch word.
    let addr = DATA_BASE + 8;
    let parent_before = parent.memory().read_u64(addr).unwrap();
    fork.memory_mut().write_u64(addr, 42).expect("one write");
    assert_eq!(fork.cow_dirty_pages(&snap), 1, "one write dirties one page");
    assert_eq!(
        fork.memory().shared_pages_with(parent.memory()),
        snap.page_count() - 1
    );
    // The parent is untouched by the fork's write.
    assert_eq!(parent.memory().read_u64(addr).unwrap(), parent_before);
    assert_ne!(fork.memory().read_u64(addr).unwrap(), parent_before);
}
