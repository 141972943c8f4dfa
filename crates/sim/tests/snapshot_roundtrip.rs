//! Snapshot and record/replay properties across random guest modules ×
//! random fault plans:
//!
//! * restoring a mid-run snapshot preserves every future — the restored
//!   machine steps bit-for-bit with the original, fault plan included;
//! * snapshots survive a serialize/deserialize round trip;
//! * a recorded run replays bit-for-bit on a fresh machine from its event
//!   log alone;
//! * corrupted or truncated snapshot bytes are always rejected, never
//!   silently restored.

use proptest::prelude::*;
use regvault_isa::{asm, KeyReg};
use regvault_sim::{
    FaultKind, FaultPlan, FaultSpec, FaultTrigger, Machine, MachineConfig, Snapshot, SnapshotError,
};

const TEXT_BASE: u64 = 0x8000_0000;
const DATA_BASE: u64 = 0x9000;
const DATA_SLOTS: u64 = 64;

/// A machine with general keys programmed, the data region mapped, and the
/// module loaded at [`TEXT_BASE`] — everything a trial run needs, built
/// deterministically from `seed` so two calls produce identical machines.
fn build_machine(seed: u64, program: &[u8]) -> Machine {
    let mut machine = Machine::new(MachineConfig {
        seed,
        ..MachineConfig::default()
    });
    for (i, key) in [
        KeyReg::A,
        KeyReg::B,
        KeyReg::C,
        KeyReg::D,
        KeyReg::E,
        KeyReg::F,
        KeyReg::G,
    ]
    .iter()
    .enumerate()
    {
        machine
            .write_key_register(*key, 0x1000 + i as u64, 0x2000 + i as u64)
            .expect("machine privilege");
    }
    for slot in 0..DATA_SLOTS {
        machine
            .memory_mut()
            .write_u64(DATA_BASE + slot * 8, 0)
            .expect("data region maps");
    }
    machine.load_program(TEXT_BASE, program);
    machine.hart_mut().set_pc(TEXT_BASE);
    machine
}

/// One random module fragment. Every fragment is self-contained (no
/// branches), so any concatenation assembles and runs forward until the
/// trailing `ebreak` — or until a fault-provoked integrity exception ends
/// the run early, which is itself a behavior the properties must preserve.
fn snippet(sel: u8, x: u64, slot: u64) -> String {
    let addr = DATA_BASE + (slot % DATA_SLOTS) * 8;
    match sel % 6 {
        0 => format!("li t0, {x}\naddi t0, t0, 7\nadd t3, t3, t0\n"),
        1 => format!("li t2, {x}\nxor t3, t3, t2\nmul t4, t3, t2\n"),
        2 => format!("li s0, {addr}\nli t5, {x}\nsd t5, 0(s0)\n"),
        3 => format!("li s0, {addr}\nld t6, 0(s0)\nadd a0, a0, t6\n"),
        // Pointer-style protect/store/load/unprotect round trip (key A).
        4 => format!(
            "li s1, {addr}\nli a1, {x}\ncreak a1, a1[7:0], s1\nsd a1, 0(s1)\n\
             ld a2, 0(s1)\ncrdak a2, a2, s1, [7:0]\n"
        ),
        // uid-style 32-bit value with integrity redundancy in bytes 4..7.
        _ => format!(
            "li s1, {addr}\nli a3, {}\ncreak a3, a3[3:0], s1\nsd a3, 0(s1)\n\
             ld a4, 0(s1)\ncrdak a4, a4, s1, [3:0]\n",
            x as u32
        ),
    }
}

fn module() -> impl Strategy<Value = String> {
    prop::collection::vec((any::<u8>(), any::<u64>(), 0..DATA_SLOTS), 4..32).prop_map(|snips| {
        let mut src = String::new();
        for (sel, x, slot) in snips {
            src.push_str(&snippet(sel, x, slot));
        }
        src.push_str("ebreak\n");
        src
    })
}

fn fault_kind() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        (0..DATA_SLOTS, 0u8..64).prop_map(|(s, bit)| FaultKind::MemBitFlip {
            addr: DATA_BASE + s * 8,
            bit,
        }),
        (0..DATA_SLOTS, any::<u64>()).prop_map(|(s, value)| FaultKind::MemWrite {
            addr: DATA_BASE + s * 8,
            value,
        }),
        (0..DATA_SLOTS, 0..DATA_SLOTS).prop_map(|(a, b)| FaultKind::MemSwap {
            a: DATA_BASE + a * 8,
            b: DATA_BASE + b * 8,
        }),
        (1u8..8, any::<u64>(), any::<u64>()).prop_map(|(ksel, w, k)| FaultKind::KeyTamper {
            ksel,
            xor_w0: w | 1,
            xor_k0: k,
        }),
        any::<u64>().prop_map(|x| FaultKind::ClbPoison { xor: x | 1 }),
    ]
}

fn plan_from(faults: &[(u64, FaultKind)]) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for (instret, kind) in faults {
        plan.push(FaultSpec {
            trigger: FaultTrigger::AtInstret(*instret),
            kind: *kind,
        });
    }
    plan
}

/// Steps up to `n` instructions, stopping at the first terminal event
/// (ebreak, exception, simulator error). Returns a transcript of every
/// step result and whether the run terminated.
fn step_outcomes(machine: &mut Machine, n: u64) -> (String, bool) {
    let mut outcomes = String::new();
    for _ in 0..n {
        let result = machine.step();
        let terminal = !matches!(result, Ok(None));
        outcomes.push_str(&format!("{result:?};"));
        if terminal {
            return (outcomes, true);
        }
    }
    (outcomes, false)
}

proptest! {
    /// Snapshotting mid-run and restoring (through a full byte round trip)
    /// yields a machine whose entire future — step results and final
    /// architectural digest — matches the original, for any module, fault
    /// plan, and split point.
    #[test]
    fn snapshot_restore_preserves_every_future(
        seed in any::<u64>(),
        src in module(),
        faults in prop::collection::vec((0u64..200, fault_kind()), 0..8),
        split in 1u64..80,
        tail in 1u64..200,
    ) {
        let program = asm::assemble(&src).expect("module assembles");
        let mut original = build_machine(seed, program.bytes());
        original.set_fault_plan(plan_from(&faults));
        let (_, terminal) = step_outcomes(&mut original, split);

        let snap = original.snapshot();
        let bytes = snap.to_bytes();
        let decoded = Snapshot::from_bytes(&bytes).expect("snapshot decodes");
        prop_assert_eq!(decoded.digest(), snap.digest());

        let mut restored = Machine::fork_from(&decoded).expect("snapshot restores");
        prop_assert_eq!(restored.arch_digest(), original.arch_digest());

        if !terminal {
            let (rest_original, _) = step_outcomes(&mut original, tail);
            let (rest_restored, _) = step_outcomes(&mut restored, tail);
            prop_assert_eq!(rest_original, rest_restored);
        }
        prop_assert_eq!(restored.arch_digest(), original.arch_digest());
    }

    /// A recorded run replays bit-for-bit: a fresh machine fed only the
    /// event log's fault plan reproduces every step result and the final
    /// architectural digest.
    #[test]
    fn recorded_runs_replay_bit_for_bit(
        seed in any::<u64>(),
        src in module(),
        faults in prop::collection::vec((0u64..150, fault_kind()), 0..8),
        steps in 1u64..250,
    ) {
        let program = asm::assemble(&src).expect("module assembles");
        let mut recorded = build_machine(seed, program.bytes());
        recorded.set_fault_plan(plan_from(&faults));
        recorded.start_recording();
        let (outcomes, _) = step_outcomes(&mut recorded, steps);
        let log = recorded.stop_recording().expect("recording was active");

        let mut replayed = build_machine(seed, program.bytes());
        replayed.set_fault_plan(log.to_plan());
        let (replay_outcomes, _) = step_outcomes(&mut replayed, steps);

        prop_assert_eq!(outcomes, replay_outcomes);
        prop_assert_eq!(recorded.arch_digest(), replayed.arch_digest());
    }

    /// Any single corrupted byte makes the snapshot undecodable — no
    /// corruption is ever silently restored — and decoding never panics.
    #[test]
    fn corrupted_snapshots_never_restore(
        seed in any::<u64>(),
        pos in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let program = asm::assemble("li t0, 5\nli t1, 0x9000\nsd t0, 0(t1)\nebreak\n")
            .expect("assembles");
        let mut machine = build_machine(seed, program.bytes());
        let _ = step_outcomes(&mut machine, 3);
        let mut bytes = machine.snapshot().to_bytes();
        let pos = (pos % bytes.len() as u64) as usize;
        bytes[pos] ^= mask;
        prop_assert!(Snapshot::from_bytes(&bytes).is_err());
    }

    /// Truncated snapshots are rejected at any cut point.
    #[test]
    fn truncated_snapshots_never_restore(
        seed in any::<u64>(),
        keep in any::<u64>(),
    ) {
        let machine = build_machine(seed, &[]);
        let bytes = machine.snapshot().to_bytes();
        let keep = (keep % bytes.len() as u64) as usize; // always < len, so always cut
        let result = Snapshot::from_bytes(&bytes[..keep]);
        let rejected = matches!(
            result,
            Err(SnapshotError::Truncated | SnapshotError::BadChecksum { .. }
                | SnapshotError::BadMagic | SnapshotError::BadVersion(_)
                | SnapshotError::BadEncoding(_))
        );
        prop_assert!(rejected, "truncating to {} bytes must be rejected, got {:?}", keep, result);
    }
}
