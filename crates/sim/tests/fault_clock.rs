//! Exactness of the fault clock.
//!
//! The machine keeps the earliest pending instret of its fault plan cached
//! and polls by comparing the retired-instruction count against it. These
//! tests drive random fault plans (duplicate and equal instrets,
//! out-of-order pushes, instrets already past, far-future faults) through
//! every poll site — interpreter steps, the superblock tier, modelled
//! kernel work, kernel loads, stores, `cre` and `crd` — interleaved with
//! plan replacement, clearing, immediate injection, statistics resets and
//! snapshot restore/fork while faults are pending. A reference model that
//! rescans the whole schedule at every poll point says what must happen:
//!
//! * each applied fault's instret is the first poll point at or after its
//!   scheduled instret;
//! * faults due at the same poll fire in schedule order;
//! * the cached clock ([`Machine::next_fault_due`]) always equals the
//!   model's earliest pending instret, so no writer of the plan leaves it
//!   stale (a stale-low clock is invisible architecturally, it only costs
//!   slow-path polls and refused superblocks);
//! * a tiered machine and a single-stepping one end in the same
//!   architectural state with the same applied log.

use proptest::prelude::*;
use regvault_isa::{asm, ByteRange, KeyReg};
use regvault_sim::{
    FaultKind, FaultPlan, FaultSpec, Machine, MachineConfig, ModelledPath, SimError, Snapshot,
};

const CODE_BASE: u64 = 0x8000_0000;
/// The data page the memory faults and kernel accesses target.
const DATA: u64 = 0x9000;
/// Never mapped: memory faults aimed here are skipped.
const UNMAPPED: u64 = 0x7000_0000;

/// The guest: an endless register-only loop, so faults on data, keys and
/// the CLB never change its control flow and every step retires exactly
/// one instruction. Its trace follows the `j` and ends at the `bne`, back
/// at its own entry, so the tier re-runs it pass after pass.
fn machine(superblock_tier: bool) -> Machine {
    let mut machine = Machine::new(MachineConfig {
        superblock_tier,
        ..MachineConfig::default()
    });
    let program = asm::assemble(
        "loop: addi t0, t0, 1
               addi t1, t1, 3
               j next
         next: xor t2, t0, t1
               add t3, t2, t0
               bne t1, zero, loop",
    )
    .unwrap();
    machine.load_program(CODE_BASE, program.bytes());
    machine.hart_mut().set_pc(CODE_BASE);
    for word in 0..8 {
        machine
            .memory_mut()
            .write_u64(DATA + 8 * word, 0x1111 * (word + 1))
            .unwrap();
    }
    machine.write_key_register(KeyReg::A, 0xA1, 0xA2).unwrap();
    machine
}

/// Where a scheduled fault lands relative to the instret at which its plan
/// is installed.
#[derive(Debug, Clone, Copy)]
enum When {
    /// This many retires from now; negative offsets are already past.
    After(i64),
    /// Beyond any run here.
    Far,
}

/// One operation on the machine pair.
#[derive(Debug, Clone)]
enum Op {
    /// `n` interpreter steps through [`Machine::step`].
    Step(u64),
    /// [`Machine::run`] with a budget of `n` steps (the tier may take them).
    Run(u64),
    /// [`Machine::charge_modelled`] of one row, `times` passes.
    Charge(ModelledPath, u64),
    /// Kernel load of data word `i`.
    Load(u64),
    /// Kernel store to data word `i`.
    Store(u64, u64),
    /// Kernel `cre` under key A with tweak `t`.
    Encrypt(u64),
    /// Kernel `crd` under key A with tweak `t` (tampered keys may fail it).
    Decrypt(u64),
    /// Replaces the plan with faults pushed in this order.
    SetPlan(Vec<(When, FaultKind)>),
    /// [`Machine::clear_fault_plan`].
    Clear,
    /// [`Machine::inject_fault`].
    Inject(FaultKind),
    /// [`Machine::reset_stats`]: instret restarts at 0 under a pending plan.
    ResetStats,
    /// Takes a snapshot (replacing any earlier one).
    Snapshot,
    /// Restores the last snapshot, if any.
    Restore,
    /// Replaces each machine with a fork of the last snapshot, if any.
    Fork,
}

fn word() -> impl Strategy<Value = u64> {
    0u64..8
}

fn fault_kind() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        (word(), 0u8..64).prop_map(|(i, bit)| FaultKind::MemBitFlip {
            addr: DATA + 8 * i,
            bit
        }),
        (0u8..64).prop_map(|bit| FaultKind::MemBitFlip {
            addr: UNMAPPED,
            bit
        }),
        (word(), any::<u64>()).prop_map(|(i, value)| FaultKind::MemWrite {
            addr: DATA + 8 * i,
            value
        }),
        (word(), word()).prop_map(|(a, b)| FaultKind::MemSwap {
            a: DATA + 8 * a,
            b: DATA + 8 * b
        }),
        (0u8..8, 0u64..3, 0u64..3).prop_map(|(ksel, xor_w0, xor_k0)| FaultKind::KeyTamper {
            ksel,
            xor_w0,
            xor_k0
        }),
        (0u64..4).prop_map(|xor| FaultKind::ClbPoison { xor }),
    ]
}

fn when() -> impl Strategy<Value = When> {
    prop_oneof![
        (-40i64..600).prop_map(When::After),
        // Small offsets collide often: equal instrets, and faults due at
        // the same poll point.
        (-2i64..3).prop_map(When::After),
        Just(When::Far),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..40).prop_map(Op::Step),
        (1u64..1500).prop_map(Op::Run),
        (1u64..1500).prop_map(Op::Run),
        (0usize..ModelledPath::ALL.len(), 1u64..4)
            .prop_map(|(row, times)| Op::Charge(ModelledPath::ALL[row], times)),
        word().prop_map(Op::Load),
        (word(), any::<u64>()).prop_map(|(i, value)| Op::Store(i, value)),
        (0u64..4).prop_map(Op::Encrypt),
        (0u64..4).prop_map(Op::Decrypt),
        prop_collection::vec((when(), fault_kind()), 0..8).prop_map(Op::SetPlan),
        prop_collection::vec((when(), fault_kind()), 1..8).prop_map(Op::SetPlan),
        Just(Op::Clear),
        fault_kind().prop_map(Op::Inject),
        Just(Op::ResetStats),
        Just(Op::Snapshot),
        Just(Op::Restore),
        Just(Op::Fork),
    ]
}

/// The reference fault clock: rescans the whole schedule at every poll
/// point, as the machine did before it cached the earliest instret.
#[derive(Debug, Clone, Default)]
struct Model {
    installed: bool,
    pending: Vec<FaultSpec>,
    applied: Vec<(u64, FaultKind)>,
}

impl Model {
    /// Fires, in schedule order, every pending fault due at poll point `at`.
    fn poll(&mut self, at: u64) {
        let (due, later): (Vec<FaultSpec>, Vec<FaultSpec>) =
            self.pending.iter().partition(|spec| spec.instret <= at);
        self.applied
            .extend(due.into_iter().map(|spec| (at, spec.kind)));
        self.pending = later;
    }

    fn next_due(&self) -> u64 {
        self.pending
            .iter()
            .map(|spec| spec.instret)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// What a snapshot of a machine in this state restores to: a plan with
    /// nothing pending and nothing applied is not captured.
    fn restored(&self) -> Self {
        let mut model = self.clone();
        model.installed = !(model.pending.is_empty() && model.applied.is_empty());
        model
    }
}

/// Applies `op` to `machine`, returning the poll points it passed in order.
fn apply(machine: &mut Machine, op: &Op, snapshot: Option<&Snapshot>) -> Vec<u64> {
    let at = machine.stats().instret;
    match op {
        Op::Step(n) => {
            for _ in 0..*n {
                assert_eq!(machine.step().unwrap(), None);
            }
            assert_eq!(machine.stats().instret, at + n);
            (at..at + n).collect()
        }
        Op::Run(n) => {
            assert!(matches!(
                machine.run(*n),
                Err(SimError::StepLimitExceeded { .. })
            ));
            assert_eq!(machine.stats().instret, at + n);
            (at..at + n).collect()
        }
        Op::Charge(path, times) => {
            machine.charge_modelled(*path, *times);
            path.insns()
                .iter()
                .scan(at, |point, &(_, count)| {
                    *point += count * times;
                    Some(*point)
                })
                .collect()
        }
        Op::Load(i) => {
            machine.kernel_load_u64(DATA + 8 * i).unwrap();
            vec![at, at + 1]
        }
        Op::Store(i, value) => {
            machine.kernel_store_u64(DATA + 8 * i, *value).unwrap();
            vec![at, at + 1]
        }
        Op::Encrypt(tweak) => {
            let _ = machine.kernel_encrypt(KeyReg::A, *tweak, 0x5EC2E7, ByteRange::LOW32);
            vec![at]
        }
        Op::Decrypt(tweak) => {
            let _ = machine.kernel_decrypt(KeyReg::A, *tweak, 0x5EC2E7, ByteRange::LOW32);
            vec![at]
        }
        Op::SetPlan(faults) => {
            let mut plan = FaultPlan::new();
            for &(when, kind) in faults {
                let instret = match when {
                    When::After(offset) => at.saturating_add_signed(offset),
                    When::Far => u64::MAX,
                };
                plan.push(FaultSpec { instret, kind });
            }
            machine.set_fault_plan(plan);
            Vec::new()
        }
        Op::Clear => {
            machine.clear_fault_plan();
            Vec::new()
        }
        Op::Inject(kind) => {
            machine.inject_fault(*kind);
            Vec::new()
        }
        Op::ResetStats => {
            machine.reset_stats();
            Vec::new()
        }
        Op::Snapshot => Vec::new(),
        Op::Restore => {
            if let Some(snapshot) = snapshot {
                machine.restore(snapshot);
            }
            Vec::new()
        }
        Op::Fork => {
            if let Some(snapshot) = snapshot {
                let tier = machine.superblock_tier();
                *machine = Machine::fork_from(snapshot).unwrap();
                machine.set_superblock_tier(tier);
            }
            Vec::new()
        }
    }
}

/// The model's transition for `op`, given the poll points the machine
/// passed and the instret the op started at.
fn step_model(model: &mut Model, op: &Op, at: u64, points: &[u64], saved: Option<&Model>) {
    match op {
        Op::SetPlan(faults) => {
            let pending = faults
                .iter()
                .map(|&(when, kind)| FaultSpec {
                    instret: match when {
                        When::After(offset) => at.saturating_add_signed(offset),
                        When::Far => u64::MAX,
                    },
                    kind,
                })
                .collect();
            *model = Model {
                installed: true,
                pending,
                applied: Vec::new(),
            };
        }
        Op::Clear => *model = Model::default(),
        Op::Inject(kind) => {
            model.installed = true;
            model.applied.push((at, *kind));
        }
        Op::Restore | Op::Fork => {
            if let Some(saved) = saved {
                *model = saved.clone();
            }
        }
        _ => {
            if model.installed {
                for &point in points {
                    model.poll(point);
                }
            }
        }
    }
}

/// The machine's fault state agrees with the model's.
fn agrees(machine: &Machine, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        machine.next_fault_due(),
        model.next_due(),
        "cached fault clock"
    );
    prop_assert_eq!(machine.fault_plan().is_some(), model.installed);
    if let Some(plan) = machine.fault_plan() {
        prop_assert_eq!(plan.specs(), &model.pending[..]);
        let applied: Vec<(u64, FaultKind)> = plan
            .applied()
            .iter()
            .map(|entry| (entry.instret, entry.kind))
            .collect();
        prop_assert_eq!(applied, model.applied.clone());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fault_clock_matches_a_full_rescan_at_every_poll_point(
        ops in prop_collection::vec(op(), 1..40)
    ) {
        let mut machines = [machine(true), machine(false)];
        let mut model = Model::default();
        let mut saved: Option<([Snapshot; 2], Model)> = None;
        for op in &ops {
            let at = machines[0].stats().instret;
            let mut points = Vec::new();
            for (i, machine) in machines.iter_mut().enumerate() {
                let snapshot = saved.as_ref().map(|(snaps, _)| &snaps[i]);
                points = apply(machine, op, snapshot);
            }
            step_model(&mut model, op, at, &points, saved.as_ref().map(|(_, m)| m));
            if matches!(op, Op::Snapshot) {
                saved = Some(([machines[0].snapshot(), machines[1].snapshot()], model.restored()));
            }
            for machine in &machines {
                agrees(machine, &model)?;
            }
        }
        let [tiered, interp] = &machines;
        prop_assert_eq!(tiered.arch_digest(), interp.arch_digest());
        prop_assert_eq!(tiered.stats().instret, interp.stats().instret);
        prop_assert_eq!(
            tiered.fault_plan().map(|plan| plan.applied().to_vec()),
            interp.fault_plan().map(|plan| plan.applied().to_vec())
        );
    }
}

/// An armed plan of far-future faults leaves the superblock tier running:
/// the entry precheck reads the same clock as the poll, and a fault due
/// mid-loop still lands on its exact instret.
#[test]
fn tier_runs_under_an_armed_plan_and_stops_for_a_due_fault() {
    let mut machine = machine(true);
    let mut plan = FaultPlan::new();
    for i in 0..256 {
        plan.push(FaultSpec {
            instret: u64::MAX - i,
            kind: FaultKind::ClbPoison { xor: 1 },
        });
    }
    plan.push(FaultSpec {
        instret: 4_321,
        kind: FaultKind::MemWrite {
            addr: DATA,
            value: 7,
        },
    });
    machine.set_fault_plan(plan);
    assert_eq!(machine.next_fault_due(), 4_321);
    let _ = machine.run(10_000);
    assert!(machine.superblock_stats().insns > 9_000);
    let plan = machine.fault_plan().unwrap();
    assert_eq!(plan.applied().len(), 1);
    assert_eq!(plan.applied()[0].instret, 4_321);
    assert_eq!(plan.pending(), 256);
    assert_eq!(machine.next_fault_due(), u64::MAX - 255);
    assert_eq!(machine.memory().read_u64(DATA).unwrap(), 7);
}
