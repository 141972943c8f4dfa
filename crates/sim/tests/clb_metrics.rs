//! The exported `clb_hits`/`clb_misses` metrics are the CLB's own
//! statistics, so they follow the machine through every fork and restore
//! instead of drifting from [`regvault_sim::ClbStats`].

use regvault_isa::{asm, KeyReg};
use regvault_sim::{Machine, MachineConfig};

const TEXT_BASE: u64 = 0x8000_0000;

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
    let mut machine = Machine::new(MachineConfig::default());
    machine
        .write_key_register(KeyReg::A, 0x1357, 0x2468)
        .expect("general key");
    machine.load_program(TEXT_BASE, program.bytes());
    machine.hart_mut().set_pc(TEXT_BASE);
    machine.run(10_000).expect("loop runs to the break");
    machine
}

/// Asserts the exported hit/miss counters equal the CLB's statistics and
/// returns the hit count.
fn exported_hits_match_clb(machine: &Machine, when: &str) -> u64 {
    let exported = machine.metrics_snapshot();
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
