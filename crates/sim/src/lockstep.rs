//! Lockstep differential execution: co-run a machine on the optimized
//! paths against a single-stepping reference and localize the first
//! divergent instruction.
//!
//! Two optimizations stand between the simulator and the `cre`/`crd`
//! semantics it models, and both must be architecturally invisible: the
//! SWAR QARMA core with the flat CLB (against `qarma::reference` and the
//! naive CLB, [`MachineConfig::reference_datapath`]), and the superblock
//! tier (against the interpreter). [`run_lockstep`] checks both with one
//! executor. `fast` advances one [`Machine::step_tier`] epoch at a time —
//! a chain of whole superblocks, or one interpreter step — and `reference`
//! is single-stepped with [`Machine::step`], which never enters the tier.
//! It compares
//!
//! * every step's outcome (event/error); the interior steps of a
//!   superblock chain must be quiet `Ok(None)`;
//! * pc, privilege, GPRs and the architectural counters after every epoch
//!   (cheap);
//! * the full [`Machine::arch_digest`] at the first epoch end at least
//!   `interval` steps after the last one, and at the end (hashes all of
//!   memory), checkpointing both machines whenever the digests agree. A
//!   chain of superblocks may run past an interval; it is never split.
//!
//! Every mismatch takes one path: both machines are rewound to the last
//! checkpoint and single-stepped with a digest after each step. Both are
//! deterministic from a snapshot — the property record/replay rests on —
//! so a datapath divergence reproduces and is pinned to its exact first
//! instruction. One that does not reproduce came from the tier, which the
//! rewind never enters (`restore` drops every superblock), and is reported
//! against the forward pass's superblock chain: its entry pc and
//! architectural step range.
//!
//! [`MachineConfig::reference_datapath`]: crate::MachineConfig::reference_datapath

use crate::{
    error::SimError,
    machine::{Event, Machine},
    snapshot::Snapshot,
};

/// A localized divergence between the two machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// 1-based count of the instruction whose effects first differed
    /// (relative to where lockstep started).
    pub step: u64,
    /// Human-readable description of the first differing state component.
    pub detail: String,
}

/// Result of a lockstep run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockstepOutcome {
    /// Instructions executed (on each machine) before stopping.
    pub steps: u64,
    /// The first divergence, or `None` if the machines agreed throughout.
    pub divergence: Option<Divergence>,
}

impl LockstepOutcome {
    /// `true` when the run completed with the datapaths in agreement.
    #[must_use]
    pub fn agreed(&self) -> bool {
        self.divergence.is_none()
    }
}

/// Describes the first architectural difference between two machines, or
/// `None` when their digests should agree. Checked in order: pc, privilege,
/// GPRs, CSRs, key registers, CLB, memory, then counters — so the returned
/// string names the most causally-upstream difference.
#[must_use]
pub fn arch_divergence(fast: &Machine, reference: &Machine) -> Option<String> {
    if fast.hart().pc() != reference.hart().pc() {
        return Some(format!(
            "pc: fast={:#x} reference={:#x}",
            fast.hart().pc(),
            reference.hart().pc()
        ));
    }
    if fast.hart().privilege() != reference.hart().privilege() {
        return Some(format!(
            "privilege: fast={:?} reference={:?}",
            fast.hart().privilege(),
            reference.hart().privilege()
        ));
    }
    let (fr, rr) = (fast.hart().regs(), reference.hart().regs());
    if let Some(i) = (0..32).find(|&i| fr[i] != rr[i]) {
        return Some(format!("x{i}: fast={:#x} reference={:#x}", fr[i], rr[i]));
    }
    {
        let fc: Vec<_> = fast.hart().csr_entries().collect();
        let rc: Vec<_> = reference.hart().csr_entries().collect();
        if fc != rc {
            return Some(format!("csrs: fast={fc:x?} reference={rc:x?}"));
        }
    }
    let fk = fast.engine().key_file().raw_keys();
    let rk = reference.engine().key_file().raw_keys();
    if let Some(i) = (0..8).find(|&i| fk[i] != rk[i]) {
        return Some(format!(
            "key register ksel={i}: fast=({:#x},{:#x}) reference=({:#x},{:#x})",
            fk[i].w0(),
            fk[i].k0(),
            rk[i].w0(),
            rk[i].k0()
        ));
    }
    let fe = fast.engine().clb().entries_lru_to_mru();
    let re = reference.engine().clb().entries_lru_to_mru();
    if fe != re {
        return Some(format!(
            "CLB entries (LRU→MRU): fast={} entries, reference={} entries, first mismatch at {:?} vs {:?}",
            fe.len(),
            re.len(),
            fe.iter().zip(re.iter()).find(|(a, b)| a != b).map(|(a, _)| a),
            fe.iter().zip(re.iter()).find(|(a, b)| a != b).map(|(_, b)| b),
        ));
    }
    if fast.engine().clb().stats() != reference.engine().clb().stats() {
        return Some(format!(
            "CLB stats: fast={:?} reference={:?}",
            fast.engine().clb().stats(),
            reference.engine().clb().stats()
        ));
    }
    {
        let fp = fast.memory().page_entries();
        let rp = reference.memory().page_entries();
        let fpages: Vec<u64> = fp.iter().map(|p| p.0).collect();
        let rpages: Vec<u64> = rp.iter().map(|p| p.0).collect();
        if fpages != rpages {
            return Some(format!(
                "mapped pages: fast={} reference={}",
                fpages.len(),
                rpages.len()
            ));
        }
        for (&(no, _, fd), &(_, _, rd)) in fp.iter().zip(rp.iter()) {
            if let Some(off) = (0..fd.len()).find(|&i| fd[i] != rd[i]) {
                let addr = (no << 12) + off as u64;
                return Some(format!(
                    "memory at {addr:#x}: fast={:#04x} reference={:#04x}",
                    fd[off], rd[off]
                ));
            }
        }
    }
    let (fs, rs) = (fast.stats().arch_counts(), reference.stats().arch_counts());
    for ((name, a), (_, b)) in fs.into_iter().zip(rs) {
        if a != b {
            return Some(format!("{name}: fast={a} reference={b}"));
        }
    }
    None
}

/// What one step reported: the event (if any) or the error.
type StepOutcome = Result<Option<Event>, SimError>;

/// Both machines as they were at the last step whose digests agreed.
struct Checkpoint {
    fast: Snapshot,
    reference: Snapshot,
    step: u64,
}

/// Co-runs `fast` and `reference` for up to `max_steps` instructions (see
/// the module docs): `fast` through the superblock tier one epoch at a
/// time, `reference` one [`Machine::step`] at a time. Step outcomes are
/// compared every instruction, pc/privilege/GPRs/counters every epoch, and
/// digests once per `interval` instructions (clamped to ≥ 1) at an epoch
/// end. Stops at the first event either machine reports (breakpoint,
/// exception, syscall, timer, watchdog — the bare-metal terminal
/// conditions) or when `max_steps` is reached, with a final digest
/// comparison either way.
///
/// On mismatch, both machines are rewound to the last agreeing checkpoint
/// and single-stepped to the exact first divergent instruction, where they
/// are left for inspection. A divergence the rewind does not reproduce is
/// reported where the forward pass saw it, with the superblock chain (or
/// step window) it lies in.
pub fn run_lockstep(
    fast: &mut Machine,
    reference: &mut Machine,
    max_steps: u64,
    interval: u64,
) -> LockstepOutcome {
    let interval = interval.max(1);
    let mut ckpt = Checkpoint {
        fast: fast.snapshot(),
        reference: reference.snapshot(),
        step: 0,
    };
    let mut step: u64 = 0;
    let mut next_digest = interval;
    let mut terminal = false;

    loop {
        if terminal || step >= max_steps || step >= next_digest {
            // A snapshot carries its digest, so the checkpoint costs no
            // second hash.
            let (fast_now, reference_now) = (fast.snapshot(), reference.snapshot());
            if fast_now.digest() != reference_now.digest() {
                let window = format!("in steps {}..={step}: ", ckpt.step + 1);
                let seen = divergence(step, &window, None, fast, reference);
                return rewind(fast, reference, &ckpt, seen);
            }
            if terminal || step >= max_steps {
                return LockstepOutcome {
                    steps: step,
                    divergence: None,
                };
            }
            ckpt = Checkpoint {
                fast: fast_now,
                reference: reference_now,
                step,
            };
            next_digest = step + interval;
        }

        let entry_pc = fast.hart().pc();
        let (consumed, outcome): (u64, StepOutcome) = match fast.step_tier(max_steps - step) {
            Ok((n, event)) => (n, Ok(event)),
            Err(err) => (1, Err(err)),
        };
        let first = step + 1;
        let chain = move || {
            if consumed > 1 {
                format!(
                    "in superblocks entered at {entry_pc:#x}, steps {first}..={}: ",
                    first + consumed - 1
                )
            } else {
                String::new()
            }
        };

        for k in 1..=consumed {
            // Inside a chain the machine proved no event can land, so the
            // reference must be quiet there too.
            let expected = if k == consumed { &outcome } else { &Ok(None) };
            let got = reference.step();
            if got != *expected {
                let seen = divergence(step + k, &chain(), Some((expected, &got)), fast, reference);
                return rewind(fast, reference, &ckpt, seen);
            }
        }
        step += consumed;

        let (fh, rh) = (fast.hart(), reference.hart());
        if fh.pc() != rh.pc()
            || fh.privilege() != rh.privilege()
            || fh.regs() != rh.regs()
            || fast.stats().arch_counts() != reference.stats().arch_counts()
        {
            let seen = divergence(step, &chain(), None, fast, reference);
            return rewind(fast, reference, &ckpt, seen);
        }
        terminal = outcome != Ok(None);
    }
}

/// A divergence at `step`: the differing outcomes if there are any, else
/// the first differing state component, after `context`.
fn divergence(
    step: u64,
    context: &str,
    outcomes: Option<(&StepOutcome, &StepOutcome)>,
    fast: &Machine,
    reference: &Machine,
) -> Divergence {
    let what = match outcomes {
        Some((f, r)) => format!("step outcome: fast={f:?} reference={r:?}"),
        None => arch_divergence(fast, reference)
            .unwrap_or_else(|| "digest mismatch (state diff inconclusive)".into()),
    };
    Divergence {
        step,
        detail: format!("{context}{what}"),
    }
}

/// Rewinds both machines to `ckpt` and single-steps them up to the step
/// where the forward pass saw `seen`, comparing outcomes and digests after
/// every step. Returns the exact first divergent step, or `seen` when the
/// window replays cleanly — a divergence only the tier produces.
fn rewind(
    fast: &mut Machine,
    reference: &mut Machine,
    ckpt: &Checkpoint,
    seen: Divergence,
) -> LockstepOutcome {
    fast.restore(&ckpt.fast);
    reference.restore(&ckpt.reference);
    let mut step = ckpt.step;
    while step < seen.step {
        let (f, r) = (fast.step(), reference.step());
        step += 1;
        let found = if f != r {
            Some(divergence(step, "", Some((&f, &r)), fast, reference))
        } else if fast.arch_digest() != reference.arch_digest() {
            Some(divergence(step, "", None, fast, reference))
        } else {
            None
        };
        if found.is_some() {
            return LockstepOutcome {
                steps: step,
                divergence: found,
            };
        }
        if f != Ok(None) {
            break;
        }
    }
    LockstepOutcome {
        steps: seen.step,
        divergence: Some(Divergence {
            step: seen.step,
            detail: format!(
                "{} (single-stepping from step {} does not reproduce it)",
                seen.detail, ckpt.step
            ),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use regvault_isa::{KeyReg, Reg};

    /// `program` at `0x8000_0000` on a machine with keys A and B set.
    fn machine(program: &str, reference_datapath: bool) -> Machine {
        let image = regvault_isa::asm::assemble(program).unwrap();
        let mut machine = Machine::new(MachineConfig {
            reference_datapath,
            ..MachineConfig::default()
        });
        machine.load_program(0x8000_0000, image.bytes());
        machine.write_key_register(KeyReg::A, 0x11, 0x22).unwrap();
        machine.write_key_register(KeyReg::B, 0x33, 0x44).unwrap();
        machine.hart_mut().set_pc(0x8000_0000);
        machine
    }

    /// SWAR datapath against the reference datapath.
    fn pair(program: &str) -> (Machine, Machine) {
        (machine(program, false), machine(program, true))
    }

    const CRYPTO_LOOP: &str = "li   t1, 0x9000
         li   s0, 0x9000
         li   s1, 0
         li   s2, 50
loop:    addi a0, s1, 0x100
         creak a0, a0[3:0], t1
         sd   a0, 0(s0)
         ld   a1, 0(s0)
         crdak a1, a1, t1, [3:0]
         addi s1, s1, 1
         addi t1, t1, 8
         addi s0, s0, 8
         bne  s1, s2, loop
         ebreak";

    /// Two identical machines: the executor runs the first through the
    /// tier and single-steps the second.
    fn tiered_pair(program: &str) -> (Machine, Machine) {
        (machine(program, false), machine(program, false))
    }

    /// Ground truth for the localization tests: single-steps both machines
    /// with a digest after every step and returns the first step whose
    /// digests differ.
    fn first_digest_split(fast: &mut Machine, reference: &mut Machine) -> Option<u64> {
        for step in 1..10_000u64 {
            let outcome = fast.step();
            let _ = reference.step();
            if fast.arch_digest() != reference.arch_digest() {
                return Some(step);
            }
            if !matches!(outcome, Ok(None)) {
                break;
            }
        }
        None
    }

    /// A `MemWrite` of 0x9000 at instret 200.
    fn memory_fault() -> crate::fault::FaultPlan {
        crate::fault::FaultPlan::new().at(
            200,
            crate::fault::FaultKind::MemWrite {
                addr: 0x9000,
                value: 0x5555_5555,
            },
        )
    }

    #[test]
    fn tiered_agrees_with_interpreter_on_crypto_loop() {
        let (mut tiered, mut interp) = tiered_pair(CRYPTO_LOOP);
        let outcome = run_lockstep(&mut tiered, &mut interp, 20_000, 64);
        assert!(outcome.agreed(), "divergence: {:?}", outcome.divergence);
        assert!(outcome.steps > 100);
        let sb = tiered.superblock_stats();
        assert!(sb.hits > 0, "the tier never engaged: {sb:?}");
        assert!(sb.insns > sb.hits, "blocks should retire multiple insns");
    }

    /// Every width stored and loaded 4 bytes below the top of the address
    /// space, where a `u64` runs on into page 0: effective addresses are
    /// modulo 2^64 in the interpreter and inside superblocks alike.
    #[test]
    fn accesses_at_the_top_of_the_address_space_wrap_in_both_tiers() {
        const TOP_LOOP: &str = "li   t0, -4
         li   s2, 40
loop:    li   a0, 0x1122334455667788
         sd   a0, 0(t0)
         ld   a1, 0(t0)
         li   a0, 0xaabbccdd
         sw   a0, 0(t0)
         lwu  a2, 0(t0)
         li   a0, 0xeeff
         sh   a0, 0(t0)
         lhu  a3, 0(t0)
         li   a0, 0x42
         sb   a0, 0(t0)
         lbu  a4, 0(t0)
         ld   a5, -3(zero)
         ld   a6, 0(t0)
         addi s2, s2, -1
         bnez s2, loop
         ebreak";
        let (mut tiered, mut interp) = tiered_pair(TOP_LOOP);
        let outcome = run_lockstep(&mut tiered, &mut interp, 20_000, 16);
        assert!(outcome.agreed(), "divergence: {:?}", outcome.divergence);
        assert!(tiered.superblock_stats().hits > 0, "the tier never engaged");
        let regs = [Reg::A1, Reg::A2, Reg::A3, Reg::A4, Reg::A5, Reg::A6];
        let want = [
            0x1122_3344_5566_7788,
            0xAABB_CCDD,
            0xEEFF,
            0x42,
            // `-3(zero)` is one byte above `t0`: 0xEE 0xBB 0xAA, then page 0.
            0x0011_2233_44AA_BBEE,
            0x1122_3344_AABB_EE42,
        ];
        for machine in [&tiered, &interp] {
            assert_eq!(regs.map(|r| machine.hart().reg(r)), want);
            assert_eq!(machine.memory().read_u32(0).unwrap(), 0x1122_3344);
        }
    }

    #[test]
    fn tiered_divergence_is_localized() {
        // A fault only the tiered machine receives corrupts data memory at
        // instret 200, mid-loop with the tier hot. The forward pass sees it
        // at the next digest, 64 steps apart at most; the rewind pins the
        // exact step single-stepping finds.
        let (mut truth_tiered, mut truth_interp) = tiered_pair(CRYPTO_LOOP);
        truth_tiered.set_fault_plan(memory_fault());
        let expected_step =
            first_digest_split(&mut truth_tiered, &mut truth_interp).expect("fault must diverge");

        let (mut tiered, mut interp) = tiered_pair(CRYPTO_LOOP);
        tiered.set_fault_plan(memory_fault());
        let outcome = run_lockstep(&mut tiered, &mut interp, 10_000, 64);
        let divergence = outcome.divergence.expect("must diverge");
        assert_eq!(divergence.step, expected_step);
        assert!(
            divergence.detail.contains("memory at") || divergence.detail.contains("0x9000"),
            "detail should blame memory: {}",
            divergence.detail
        );
    }

    #[test]
    fn tiered_watchdog_lands_on_the_same_step() {
        let (mut tiered, mut interp) = tiered_pair(CRYPTO_LOOP);
        tiered.arm_watchdog(137);
        interp.arm_watchdog(137);
        let outcome = run_lockstep(&mut tiered, &mut interp, 10_000, 64);
        // Both must report Timeout on exactly the same architectural step;
        // any off-by-one in the block budget precheck shows up as a step
        // outcome mismatch instead.
        assert!(outcome.agreed(), "divergence: {:?}", outcome.divergence);
    }

    #[test]
    fn identical_datapaths_agree() {
        let (mut fast, mut reference) = pair(CRYPTO_LOOP);
        let outcome = run_lockstep(&mut fast, &mut reference, 10_000, 64);
        assert!(outcome.agreed(), "divergence: {:?}", outcome.divergence);
        assert!(outcome.steps > 100);
        // The SWAR datapath also ran inside superblocks, against the
        // single-stepped reference datapath.
        let sb = fast.superblock_stats();
        assert!(sb.hits > 0, "the tier never engaged: {sb:?}");
    }

    #[test]
    fn seeded_key_divergence_is_localized_exactly() {
        // Ground truth: run a second pair manually and find the first step
        // where the tampered fast machine's digest separates.
        let (mut truth_fast, mut truth_reference) = pair(CRYPTO_LOOP);
        truth_fast
            .engine_mut()
            .key_file_mut()
            .tamper(KeyReg::B.ksel(), 0x4, 0);
        // Key B is never used by the program, so tampering it diverges at
        // the very first digest (the key register itself differs) — which
        // the rewind must report as step 1's state.
        let expected_step =
            first_digest_split(&mut truth_fast, &mut truth_reference).expect("tamper must diverge");

        let (mut fast, mut reference) = pair(CRYPTO_LOOP);
        fast.engine_mut()
            .key_file_mut()
            .tamper(KeyReg::B.ksel(), 0x4, 0);
        let outcome = run_lockstep(&mut fast, &mut reference, 10_000, 64);
        let divergence = outcome.divergence.expect("must diverge");
        assert_eq!(divergence.step, expected_step);
        assert!(
            divergence.detail.contains("key register"),
            "detail should blame the key register: {}",
            divergence.detail
        );
    }

    #[test]
    fn mid_run_data_divergence_is_localized_exactly() {
        // Corrupt the fast machine's data memory mid-run via a scheduled
        // fault that only it receives: the lockstep executor must localize
        // the divergence to the exact step where the fault fired.
        let (mut truth_fast, mut truth_reference) = pair(CRYPTO_LOOP);
        truth_fast.set_fault_plan(memory_fault());
        let expected_step =
            first_digest_split(&mut truth_fast, &mut truth_reference).expect("fault must diverge");

        let (mut fast, mut reference) = pair(CRYPTO_LOOP);
        fast.set_fault_plan(memory_fault());
        let outcome = run_lockstep(&mut fast, &mut reference, 10_000, 64);
        let divergence = outcome.divergence.expect("must diverge");
        assert_eq!(divergence.step, expected_step);
        assert!(
            divergence.detail.contains("memory at") || divergence.detail.contains("0x9000"),
            "detail should blame memory: {}",
            divergence.detail
        );
    }
}
