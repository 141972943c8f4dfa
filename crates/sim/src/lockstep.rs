//! Lockstep differential execution: co-run the optimized datapath against
//! the reference datapath and localize the first divergent instruction.
//!
//! PR 2 replaced the cell-level QARMA implementation with a SWAR core and
//! the linear-scan CLB with a hash-indexed intrusive-LRU one. Both rewrites
//! are *supposed* to be architecturally invisible; this module is the
//! machinery that hunts the case where they are not. [`run_lockstep`]
//! single-steps two machines — one built with
//! `MachineConfig::reference_datapath = true`, one without — through the
//! same program, comparing:
//!
//! * the step outcome (event/error) after **every** instruction (cheap), and
//! * the full [`Machine::arch_digest`] every `interval` instructions
//!   (hashes all of memory — the expensive check).
//!
//! On any mismatch it restores both machines from the snapshots taken at
//! the last agreeing checkpoint and re-executes the window one instruction
//! at a time, digesting after each, which pins the divergence to the exact
//! first instruction whose architectural effects differ. The re-execution
//! is sound because both machines are deterministic from a snapshot — the
//! same property the record/replay layer rests on.

use crate::{
    error::SimError,
    machine::{Event, Machine},
};

/// A localized divergence between the two datapaths.
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

/// Co-runs `fast` and `reference` for up to `max_steps` instructions,
/// comparing step outcomes every instruction and architectural digests
/// every `interval` instructions (clamped to ≥ 1). Stops at the first
/// event either machine reports (breakpoint, exception, syscall — the
/// bare-metal terminal conditions) or when `max_steps` is reached, with a
/// final digest comparison either way.
///
/// On mismatch, both machines are rewound to the last agreeing checkpoint
/// and single-stepped to the exact first divergent instruction; the
/// machines are left in their post-divergence states for inspection.
pub fn run_lockstep(
    fast: &mut Machine,
    reference: &mut Machine,
    max_steps: u64,
    interval: u64,
) -> LockstepOutcome {
    let interval = interval.max(1);
    let mut ckpt_fast = fast.snapshot();
    let mut ckpt_reference = reference.snapshot();
    let mut ckpt_step: u64 = 0;
    let mut step: u64 = 0;

    loop {
        if step >= max_steps {
            if fast.arch_digest() != reference.arch_digest() {
                return bisect(
                    fast,
                    reference,
                    &ckpt_fast,
                    &ckpt_reference,
                    ckpt_step,
                    step,
                );
            }
            return LockstepOutcome {
                steps: step,
                divergence: None,
            };
        }

        let fast_result = fast.step();
        let reference_result = reference.step();
        step += 1;

        let fast_text = format!("{fast_result:?}");
        let reference_text = format!("{reference_result:?}");
        if fast_text != reference_text {
            // The visible outcomes differ at this step; an earlier silent
            // state divergence may have caused it, so bisect the window.
            let mut outcome = bisect(
                fast,
                reference,
                &ckpt_fast,
                &ckpt_reference,
                ckpt_step,
                step,
            );
            if outcome.divergence.is_none() {
                outcome.divergence = Some(Divergence {
                    step,
                    detail: format!("step outcome: fast={fast_text} reference={reference_text}"),
                });
                outcome.steps = step;
            }
            return outcome;
        }

        let terminal = !matches!(fast_result, Ok(None));
        if terminal || step.is_multiple_of(interval) {
            if fast.arch_digest() != reference.arch_digest() {
                return bisect(
                    fast,
                    reference,
                    &ckpt_fast,
                    &ckpt_reference,
                    ckpt_step,
                    step,
                );
            }
            if terminal {
                return LockstepOutcome {
                    steps: step,
                    divergence: None,
                };
            }
            ckpt_fast = fast.snapshot();
            ckpt_reference = reference.snapshot();
            ckpt_step = step;
        }
    }
}

/// Re-executes the window `[ckpt_step, limit]` from the checkpoints one
/// instruction at a time, digesting after each, and returns the exact first
/// divergent step. `fast`/`reference` are left at the divergence point.
fn bisect(
    fast: &mut Machine,
    reference: &mut Machine,
    ckpt_fast: &crate::snapshot::Snapshot,
    ckpt_reference: &crate::snapshot::Snapshot,
    ckpt_step: u64,
    limit: u64,
) -> LockstepOutcome {
    fast.restore(ckpt_fast);
    reference.restore(ckpt_reference);
    let mut step = ckpt_step;
    while step < limit.max(ckpt_step + 1) {
        let fast_result = fast.step();
        let reference_result = reference.step();
        step += 1;
        let fast_text = format!("{fast_result:?}");
        let reference_text = format!("{reference_result:?}");
        if fast_text != reference_text {
            return LockstepOutcome {
                steps: step,
                divergence: Some(Divergence {
                    step,
                    detail: format!("step outcome: fast={fast_text} reference={reference_text}"),
                }),
            };
        }
        if fast.arch_digest() != reference.arch_digest() {
            let detail = arch_divergence(fast, reference)
                .unwrap_or_else(|| "digest mismatch (state diff inconclusive)".into());
            return LockstepOutcome {
                steps: step,
                divergence: Some(Divergence { step, detail }),
            };
        }
        if !matches!(fast_result, Ok(None)) {
            break;
        }
    }
    // The window replayed cleanly — the divergence the caller saw did not
    // reproduce (should be impossible for a deterministic machine; surface
    // it rather than panicking).
    LockstepOutcome {
        steps: step,
        divergence: Some(Divergence {
            step,
            detail: "divergence did not reproduce during bisection".into(),
        }),
    }
}

/// Cheap per-epoch agreement check for [`run_tiered_lockstep`]: pc,
/// privilege, all GPRs, and the architectural counters. Memory, CSRs, keys
/// and CLB state are covered by the full digests at interval boundaries
/// (and almost every realistic tier bug corrupts a register or counter
/// within the same epoch anyway).
fn quick_agree(tiered: &Machine, interp: &Machine) -> bool {
    tiered.hart().pc() == interp.hart().pc()
        && tiered.hart().privilege() == interp.hart().privilege()
        && tiered.hart().regs() == interp.hart().regs()
        && tiered.stats().arch_counts() == interp.stats().arch_counts()
}

fn divergence_detail(tiered: &Machine, interp: &Machine) -> String {
    arch_divergence(tiered, interp)
        .unwrap_or_else(|| "digest mismatch (state diff inconclusive)".into())
}

/// Co-runs the superblock tier against the single-step interpreter and
/// localizes the first divergence.
///
/// `tiered` advances one *epoch* at a time via [`Machine::step_tier`] — a
/// chain of whole superblocks or one interpreter step — and `interp`
/// (which should have the tier disabled) is driven through the same
/// number of architectural steps. Every intermediate step of a block epoch must be
/// an uneventful `Ok(None)` on the interpreter, every final outcome must
/// match, and after every epoch the cheap architectural state (pc,
/// privilege, GPRs, counters) must agree; full digests (memory, CSRs,
/// keys, CLB) run every `interval` architectural steps and at the end.
/// Stops at the first event either machine reports or at `max_steps`.
///
/// Because blocks execute atomically, a divergence inside a chain is
/// reported against it — the pc it was entered at, the architectural step
/// range, and the first differing state component — while single-step
/// epochs pin the exact instruction, exactly like [`run_lockstep`].
pub fn run_tiered_lockstep(
    tiered: &mut Machine,
    interp: &mut Machine,
    max_steps: u64,
    interval: u64,
) -> LockstepOutcome {
    let interval = interval.max(1);
    let mut step: u64 = 0;
    let mut next_digest = interval;

    loop {
        if step >= max_steps {
            break;
        }
        let entry_pc = tiered.hart().pc();
        let (consumed, outcome): (u64, Result<Option<Event>, SimError>) =
            match tiered.step_tier(max_steps - step) {
                Ok((n, event)) => (n, Ok(event)),
                Err(err) => (1, Err(err)),
            };

        for k in 0..consumed {
            let interp_result = interp.step();
            let last = k + 1 == consumed;
            let expected_text = if last {
                format!("{outcome:?}")
            } else {
                // Interior of a superblock: the machine proved no event
                // can land here, so the interpreter must agree.
                format!("{:?}", Ok::<Option<Event>, SimError>(None))
            };
            let interp_text = format!("{interp_result:?}");
            if interp_text != expected_text {
                let at = step + k + 1;
                let context = if consumed > 1 {
                    format!(
                        " (inside superblocks entered at {entry_pc:#x}, insn {} of {consumed})",
                        k + 1
                    )
                } else {
                    String::new()
                };
                return LockstepOutcome {
                    steps: at,
                    divergence: Some(Divergence {
                        step: at,
                        detail: format!(
                            "step outcome{context}: tiered={expected_text} interp={interp_text}"
                        ),
                    }),
                };
            }
        }
        step += consumed;

        if !quick_agree(tiered, interp) {
            let detail = divergence_detail(tiered, interp);
            let detail = if consumed > 1 {
                format!(
                    "inside superblocks entered at {entry_pc:#x} (arch steps {}..={step}): {detail}",
                    step - consumed + 1
                )
            } else {
                detail
            };
            return LockstepOutcome {
                steps: step,
                divergence: Some(Divergence { step, detail }),
            };
        }

        let terminal = !matches!(outcome, Ok(None));
        if terminal || step >= next_digest {
            if tiered.arch_digest() != interp.arch_digest() {
                return LockstepOutcome {
                    steps: step,
                    divergence: Some(Divergence {
                        step,
                        detail: format!(
                            "within the last {interval} steps: {}",
                            divergence_detail(tiered, interp)
                        ),
                    }),
                };
            }
            if terminal {
                return LockstepOutcome {
                    steps: step,
                    divergence: None,
                };
            }
            next_digest = step + interval;
        }
    }

    if tiered.arch_digest() != interp.arch_digest() {
        return LockstepOutcome {
            steps: step,
            divergence: Some(Divergence {
                step,
                detail: format!(
                    "within the last {interval} steps: {}",
                    divergence_detail(tiered, interp)
                ),
            }),
        };
    }
    LockstepOutcome {
        steps: step,
        divergence: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use regvault_isa::KeyReg;

    fn pair(program: &str) -> (Machine, Machine) {
        let image = regvault_isa::asm::assemble(program).unwrap();
        let build = |reference: bool| {
            let mut machine = Machine::new(MachineConfig {
                reference_datapath: reference,
                ..MachineConfig::default()
            });
            machine.load_program(0x8000_0000, image.bytes());
            machine.write_key_register(KeyReg::A, 0x11, 0x22).unwrap();
            machine.write_key_register(KeyReg::B, 0x33, 0x44).unwrap();
            machine.hart_mut().set_pc(0x8000_0000);
            machine
        };
        (build(false), build(true))
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

    /// Tiered pair: same program, same keys; `tiered` runs the superblock
    /// tier, `interp` is forced to pure single-stepping.
    fn tiered_pair(program: &str) -> (Machine, Machine) {
        let image = regvault_isa::asm::assemble(program).unwrap();
        let build = |superblocks: bool| {
            let mut machine = Machine::new(MachineConfig {
                superblock_tier: superblocks,
                ..MachineConfig::default()
            });
            machine.load_program(0x8000_0000, image.bytes());
            machine.write_key_register(KeyReg::A, 0x11, 0x22).unwrap();
            machine.write_key_register(KeyReg::B, 0x33, 0x44).unwrap();
            machine.hart_mut().set_pc(0x8000_0000);
            machine
        };
        (build(true), build(false))
    }

    #[test]
    fn tiered_agrees_with_interpreter_on_crypto_loop() {
        let (mut tiered, mut interp) = tiered_pair(CRYPTO_LOOP);
        let outcome = run_tiered_lockstep(&mut tiered, &mut interp, 20_000, 64);
        assert!(outcome.agreed(), "divergence: {:?}", outcome.divergence);
        assert!(outcome.steps > 100);
        let sb = tiered.superblock_stats();
        assert!(sb.hits > 0, "the tier never engaged: {sb:?}");
        assert!(sb.insns > sb.hits, "blocks should retire multiple insns");
    }

    #[test]
    fn tiered_divergence_is_localized() {
        // A fault only the tiered machine receives corrupts data memory at
        // instret 200. The fault precheck forces single-stepping around the
        // due point, so with interval=1 the harness pins the exact step.
        let (mut tiered, mut interp) = tiered_pair(CRYPTO_LOOP);
        tiered.set_fault_plan(crate::fault::FaultPlan::new().at(
            200,
            crate::fault::FaultKind::MemWrite {
                addr: 0x9000,
                value: 0x5555_5555,
            },
        ));
        let outcome = run_tiered_lockstep(&mut tiered, &mut interp, 10_000, 1);
        let divergence = outcome.divergence.expect("must diverge");
        // The key-register setup already retired 4 instructions, so the
        // fault (instret 200) lands a few lockstep steps before 200.
        assert!(
            (190..=260).contains(&divergence.step),
            "fault at instret 200 should surface shortly after: {divergence:?}"
        );
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
        let outcome = run_tiered_lockstep(&mut tiered, &mut interp, 10_000, 64);
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
        let mut expected_step = None;
        for step in 1..10_000u64 {
            let a = truth_fast.step();
            let _ = truth_reference.step();
            if truth_fast.arch_digest() != truth_reference.arch_digest() {
                expected_step = Some(step);
                break;
            }
            if !matches!(a, Ok(None)) {
                break;
            }
        }
        // Key B is never used by the program, so tampering it diverges at
        // the very first digest (the key register itself differs) — which
        // the bisector must report as step 1's state.
        let expected_step = expected_step.expect("tamper must diverge");

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
        let plan = crate::fault::FaultPlan::new().at(
            200,
            crate::fault::FaultKind::MemWrite {
                addr: 0x9000,
                value: 0x5555_5555,
            },
        );
        truth_fast.set_fault_plan(plan.clone());
        let mut expected_step = None;
        for step in 1..10_000u64 {
            let a = truth_fast.step();
            let _ = truth_reference.step();
            if truth_fast.arch_digest() != truth_reference.arch_digest() {
                expected_step = Some(step);
                break;
            }
            if !matches!(a, Ok(None)) {
                break;
            }
        }
        let expected_step = expected_step.expect("fault must diverge");

        let (mut fast, mut reference) = pair(CRYPTO_LOOP);
        fast.set_fault_plan(plan);
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
