//! The epoch-rekey mitigation must not cost any determinism: with the
//! knob on, the same seed yields the same final architectural digest
//! (the digest covers the engine's epoch vector and nonce counter, so
//! record/replay stays exact), the SWAR and reference QARMA datapaths
//! remain bit-for-bit interchangeable (both see only the already-folded
//! tweak), and a snapshot carries the nonce counter, so a restored
//! machine issues the identical sequence of fresh epochs.

use regvault_attacks::leakage::{trap_storm_scenario, TIMER_INTERVAL};
use regvault_isa::{KeyReg, Reg};
use regvault_kernel::{trap, Kernel, KernelConfig, ProtectionConfig};
use regvault_sim::{Machine, MachineConfig};

fn boot(seed: u64, reference_datapath: bool) -> Kernel {
    Kernel::boot(KernelConfig {
        protection: ProtectionConfig::full(),
        machine: MachineConfig {
            seed,
            epoch_rekey: true,
            reference_datapath,
            ..MachineConfig::default()
        },
        timer_interval: Some(TIMER_INTERVAL),
    })
    .expect("kernel boots")
}

/// Runs the trap storm to completion and returns (exit value, final
/// architectural digest, rekey count).
fn run_storm(seed: u64, reference_datapath: bool) -> (u64, u64, u64) {
    let scenario = trap_storm_scenario();
    let mut kernel = boot(seed, reference_datapath);
    let exit = kernel
        .run_user(&scenario.image, scenario.entry, scenario.step_budget)
        .expect("trap storm completes");
    let rekeys = kernel.machine().metrics().get("epoch_rekeys").unwrap_or(0);
    (exit, kernel.machine().arch_digest(), rekeys)
}

#[test]
fn mitigated_runs_are_bit_for_bit_repeatable() {
    let a = run_storm(42, false);
    let b = run_storm(42, false);
    assert_eq!(a, b, "same seed must reproduce the exact same machine");
    assert!(a.2 > 0, "the storm must actually rekey");
}

#[test]
fn swar_and_reference_datapaths_agree_with_mitigation_on() {
    let fast = run_storm(42, false);
    let reference = run_storm(42, true);
    assert_eq!(
        fast, reference,
        "folding the epoch must stay upstream of the datapath split"
    );
}

#[test]
fn snapshot_carries_the_nonce_counter() {
    const FRAME: u64 = 0xFFFF_FFC0_0900_0000;
    let cfg = ProtectionConfig::full();
    let mut machine = Machine::new(MachineConfig {
        epoch_rekey: true,
        ..MachineConfig::default()
    });
    machine
        .write_key_register(KeyReg::C, 0x1234, 0x5678)
        .expect("machine privilege");
    for i in 1..32u8 {
        let reg = Reg::from_index(i).unwrap();
        machine.hart_mut().set_reg(reg, u64::from(i) * 0x0101);
    }
    for _ in 0..3 {
        trap::save_context(&mut machine, &cfg, KeyReg::C, FRAME).expect("saves");
    }

    let snapshot = machine.snapshot();
    let mut restored = Machine::fork_from(&snapshot).expect("snapshot restores");
    assert_eq!(
        machine.arch_digest(),
        restored.arch_digest(),
        "restore must reproduce the digest, epoch state included"
    );

    // Further saves must issue the identical fresh-nonce sequence and
    // produce bit-identical machines — i.e. the nonce counter itself was
    // part of the snapshot, not reset by the restore.
    for _ in 0..3 {
        trap::save_context(&mut machine, &cfg, KeyReg::C, FRAME).expect("saves");
        trap::save_context(&mut restored, &cfg, KeyReg::C, FRAME).expect("saves");
        let a = machine.memory().read_u64(FRAME + trap::NONCE_SLOT).unwrap();
        let b = restored
            .memory()
            .read_u64(FRAME + trap::NONCE_SLOT)
            .unwrap();
        assert_eq!(a, b, "restored machine must issue the same next nonce");
        assert_eq!(machine.arch_digest(), restored.arch_digest());
    }
}
