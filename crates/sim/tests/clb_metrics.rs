//! Every exported metric is read from the machine's snapshotted state —
//! [`regvault_sim::Stats`] and [`regvault_sim::ClbStats`] — so the export
//! follows the machine through every fork, restore and `reset_stats`
//! instead of drifting from that state.

use regvault_isa::{asm, ByteRange, KeyReg};
use regvault_sim::{InsnClass, Machine, MachineConfig, SchedEvent, Stats};

const TEXT_BASE: u64 = 0x8000_0000;

/// Rekey epochs [`busy_machine`] issues for key `c`.
const REKEYS: u64 = 5;

/// A machine that has run a 40-iteration `cre`/`crd` round-trip loop.
fn warm_machine() -> Machine {
    let program = asm::assemble(
        "li   t1, 0x9000
         li   s0, 0x9000
         li   s2, 40
loop:
         creak a0, a0[3:0], t1
         sd   a0, 0(s0)
         ld   a1, 0(s0)
         crdak a1, a1, t1, [3:0]
         addi a0, a1, 1
         addi s2, s2, -1
         blt  zero, s2, loop
         ebreak",
    )
    .expect("loop assembles");
    let mut machine = Machine::new(MachineConfig {
        epoch_rekey: true,
        ..MachineConfig::default()
    });
    machine
        .write_key_register(KeyReg::A, 0x1357, 0x2468)
        .expect("general key");
    machine.load_program(TEXT_BASE, program.bytes());
    machine.hart_mut().set_pc(TEXT_BASE);
    machine.run(10_000).expect("loop runs to the break");
    machine
}

/// A warm machine that also rekeyed key `c` and counted scheduler events
/// the way the kernel does: two syscalls, three thread switches and one
/// preemption, with cycles charged in between.
fn busy_machine() -> Machine {
    let mut machine = warm_machine();
    machine
        .write_key_register(KeyReg::C, 0xC0, 0xC1)
        .expect("general key");
    for _ in 0..REKEYS {
        machine.issue_key_epoch(KeyReg::C);
        let _ = machine.kernel_encrypt(KeyReg::C, 0x40, 7, ByteRange::FULL);
    }
    for (syscall, slice) in [(120, 900), (310, 40)] {
        machine.record_sched(SchedEvent::Syscall);
        machine.charge(InsnClass::Alu, syscall);
        machine.record_sched(SchedEvent::SyscallReturn { cycles: syscall });
        machine.charge(InsnClass::Alu, slice);
        machine.record_sched(SchedEvent::ContextSwitch);
    }
    machine.record_sched(SchedEvent::Preemption);
    machine.record_sched(SchedEvent::ContextSwitch);
    machine
}

/// Asserts that every exported counter and histogram, by name and in
/// export order, equals the `Stats`/`ClbStats`/tier state it is read
/// from, and that every QARMA op is a CLB miss. Returns the machine's
/// `Stats` for further checks.
fn export_matches_state<'m>(machine: &'m Machine, when: &str) -> &'m Stats {
    let metrics = machine.metrics();
    let stats = machine.stats();
    let clb = machine.engine().clb().stats();
    let sb = machine.superblock_stats();
    let mut expected = vec![("key_invalidations".to_owned(), stats.key_invalidations)];
    for (key, ops) in KeyReg::ALL.into_iter().zip(stats.qarma_ops) {
        expected.push((format!("qarma_ops_ksel_{}", key.name()), ops));
    }
    for (name, value) in [
        ("epoch_rekeys", stats.epoch_rekeys),
        ("sched_context_switches", stats.sched_context_switches),
        ("sched_preemptions", stats.sched_preemptions),
        ("sched_syscalls", stats.sched_syscalls),
        ("cycles", stats.cycles),
        ("instret", stats.instret),
        ("crypto_encrypts", stats.encrypts),
        ("crypto_decrypts", stats.decrypts),
        ("integrity_failures", stats.integrity_failures),
        ("exceptions", stats.exceptions),
        ("timer_interrupts", stats.timer_interrupts),
        ("decode_hits", stats.decode_hits),
        ("decode_misses", stats.decode_misses),
        ("clb_hits", clb.hits),
        ("clb_misses", clb.misses),
        ("clb_evictions", clb.evictions),
        ("clb_invalidations", clb.invalidations),
        ("clb_occupancy", machine.engine().clb().occupancy() as u64),
        ("superblock_hits", sb.hits),
        ("superblock_insns", sb.insns),
        ("superblock_side_exits", sb.side_exits),
        ("superblock_built", sb.built),
        ("superblock_invalidations", sb.invalidations),
        ("superblock_cached", sb.cached as u64),
    ] {
        expected.push((name.to_owned(), value));
    }
    let exported: Vec<(String, u64)> = metrics
        .counters
        .iter()
        .map(|&(name, value)| (name.to_owned(), value))
        .collect();
    assert_eq!(exported, expected, "{when}");
    assert_eq!(
        metrics.histograms,
        vec![
            ("syscall_cycles", stats.syscall_cycles.clone()),
            ("timeslice_cycles", stats.timeslice_cycles.clone()),
        ],
        "{when}"
    );
    assert_eq!(
        stats.qarma_ops.iter().sum::<u64>(),
        clb.misses,
        "every cre/crd CLB miss is one QARMA op, {when}"
    );
    stats
}

/// Asserts the exported hit/miss counters equal the CLB's statistics and
/// returns the hit count.
fn exported_hits_match_clb(machine: &Machine, when: &str) -> u64 {
    let exported = machine.metrics();
    let clb = machine.engine().clb().stats();
    assert_eq!(exported.get("clb_hits"), Some(clb.hits), "{when}");
    assert_eq!(exported.get("clb_misses"), Some(clb.misses), "{when}");
    clb.hits
}

#[test]
fn clb_metrics_follow_fork_and_restore() {
    let mut machine = warm_machine();
    let hits = exported_hits_match_clb(&machine, "after the run");
    assert!(hits > 0, "the loop hits the CLB");

    let mut fork = Machine::fork_from(&machine.snapshot()).expect("fork");
    assert_eq!(exported_hits_match_clb(&fork, "after fork"), hits);
    fork.hart_mut().set_pc(TEXT_BASE);
    fork.run(10_000).expect("the fork reruns the loop");
    assert!(exported_hits_match_clb(&fork, "after the fork ran") > hits);

    machine.restore(&Machine::new(MachineConfig::default()).snapshot());
    assert_eq!(exported_hits_match_clb(&machine, "after restore"), 0);
}

#[test]
fn every_metric_follows_fork_restore_and_reset() {
    let mut machine = busy_machine();
    let stats = export_matches_state(&machine, "after the run").clone();
    assert_eq!(stats.epoch_rekeys, REKEYS);
    assert_eq!(stats.key_invalidations, 2, "keys a and c were written");
    assert_eq!(stats.qarma_ops[KeyReg::C.ksel() as usize], REKEYS);
    assert_eq!((stats.sched_syscalls, stats.sched_context_switches), (2, 3));
    assert_eq!(stats.sched_preemptions, 1);
    assert_eq!(stats.syscall_cycles.count(), 2);
    assert_eq!(stats.timeslice_cycles.count(), 3);

    let fork = Machine::fork_from(&machine.snapshot()).expect("fork");
    assert_eq!(export_matches_state(&fork, "after fork"), &stats);
    assert_eq!(fork.metrics().get("epoch_rekeys"), Some(REKEYS));

    let mut reset = fork.clone();
    reset.reset_stats();
    assert_eq!(
        export_matches_state(&reset, "after reset_stats"),
        &Stats::default()
    );

    machine.restore(&Machine::new(MachineConfig::default()).snapshot());
    assert_eq!(
        export_matches_state(&machine, "after restore"),
        &Stats::default()
    );
    let metrics = machine.metrics();
    assert!(metrics.counters.iter().all(|&(_, value)| value == 0));
    assert_eq!(metrics.get("epoch_rekeys"), Some(0));
}
