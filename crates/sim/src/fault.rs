//! Deterministic fault injection.
//!
//! RegVault's security argument is that corrupted randomized data is
//! *detected or garbled, never silently used* (Table 4; §4.3.2). Proving
//! that on eight hand-written attacks is weak evidence; this module lets a
//! campaign throw seeded, reproducible hardware faults at every layer the
//! paper protects:
//!
//! * guest-memory bit flips and overwrites ([`FaultKind::MemBitFlip`],
//!   [`FaultKind::MemWrite`]),
//! * tweak/address substitution — swapping two ciphertext words between
//!   their storage addresses ([`FaultKind::MemSwap`]),
//! * key-register tampering that bypasses the software write path and its
//!   CLB invalidation, modelling a glitched register
//!   ([`FaultKind::KeyTamper`]),
//! * CLB entry poisoning ([`FaultKind::ClbPoison`]).
//!
//! A [`FaultPlan`] schedules faults at chosen retired-instruction counts;
//! [`crate::Machine`] polls the plan on every step and on every
//! kernel-modelled operation, applies due faults, and records what actually
//! happened in the plan's applied-fault log. Faults can also be injected
//! immediately through [`crate::Machine::inject_fault`].
//!
//! Everything here is deterministic: the same plan against the same machine
//! and program produces the same applied-fault log, which is what makes the
//! campaign reports in `fault_campaign` reproducible.

/// A single architectural fault to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip bit `bit` (0–63) of the 64-bit word at `addr` — a DRAM
    /// disturbance or rowhammer-style flip on guest memory.
    MemBitFlip {
        /// Word-aligned guest address.
        addr: u64,
        /// Bit index within the word (taken modulo 64).
        bit: u8,
    },
    /// Overwrite the 64-bit word at `addr` with `value` — the classic
    /// arbitrary-write attacker primitive.
    MemWrite {
        /// Guest address.
        addr: u64,
        /// Value to plant.
        value: u64,
    },
    /// Swap the 64-bit words at `a` and `b` — spatial/tweak substitution:
    /// both words stay valid ciphertexts, each now at the wrong address.
    MemSwap {
        /// First guest address.
        a: u64,
        /// Second guest address.
        b: u64,
    },
    /// XOR the halves of hardware key register `ksel` in place, *without*
    /// the CLB invalidation a software key write performs — a glitched
    /// register, not a privileged update.
    KeyTamper {
        /// Key selector (0 = master, 1–7 = general; taken modulo 8).
        ksel: u8,
        /// XOR applied to the whitening half (`w0`).
        xor_w0: u64,
        /// XOR applied to the core half (`k0`).
        xor_k0: u64,
    },
    /// XOR `xor` into the plaintext of the most-recently-used valid CLB
    /// entry — a bit upset in the lookaside buffer's data array.
    ClbPoison {
        /// XOR applied to the cached plaintext.
        xor: u64,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Fires once the machine has retired at least this many instructions
    /// (kernel-modelled operations count too).
    pub instret: u64,
    /// What to do.
    pub kind: FaultKind,
}

/// What actually happened when a fault was applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEffect {
    /// The fault landed on its target.
    Injected,
    /// The targeted memory was unmapped; nothing was changed.
    SkippedUnmapped,
    /// No target existed (e.g. CLB poison with an empty buffer).
    SkippedNoTarget,
}

/// A log entry: one fault the machine applied (or tried to).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppliedFault {
    /// Retired-instruction count at injection time.
    pub instret: u64,
    /// The fault that fired.
    pub kind: FaultKind,
    /// Whether it landed.
    pub effect: FaultEffect,
}

/// A deterministic schedule of faults plus the log of what fired.
///
/// # Examples
///
/// ```
/// use regvault_sim::{FaultKind, FaultPlan};
///
/// let plan = FaultPlan::new()
///     .at(100, FaultKind::MemBitFlip { addr: 0x9000, bit: 3 })
///     .at(250, FaultKind::ClbPoison { xor: 0xFFFF });
/// assert_eq!(plan.pending(), 2);
/// assert!(plan.applied().is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    pending: Vec<FaultSpec>,
    applied: Vec<AppliedFault>,
}

impl FaultPlan {
    /// An empty plan.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder form: schedules `kind` at retired-instruction count
    /// `instret`.
    #[must_use]
    pub fn at(mut self, instret: u64, kind: FaultKind) -> Self {
        self.push(FaultSpec { instret, kind });
        self
    }

    /// Schedules one fault.
    pub fn push(&mut self, spec: FaultSpec) {
        self.pending.push(spec);
    }

    /// Number of faults not yet fired.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// The log of faults that fired, in firing order.
    #[must_use]
    pub fn applied(&self) -> &[AppliedFault] {
        &self.applied
    }

    /// Every not-yet-fired fault, in schedule order.
    #[must_use]
    pub fn specs(&self) -> &[FaultSpec] {
        &self.pending
    }

    /// Rebuilds a plan from a pending schedule plus an applied-fault log
    /// (snapshot restore).
    #[must_use]
    pub fn from_parts(pending: Vec<FaultSpec>, applied: Vec<AppliedFault>) -> Self {
        Self { pending, applied }
    }

    /// Earliest pending trigger point, `None` when the schedule is empty.
    /// The superblock tier refuses to enter a block that would retire past
    /// this instret, so injected faults always land on the exact
    /// architectural step.
    pub(crate) fn next_due(&self) -> Option<u64> {
        self.pending.iter().map(|spec| spec.instret).min()
    }

    /// Removes and returns every fault due at `instret`, preserving
    /// schedule order.
    pub(crate) fn take_due(&mut self, instret: u64) -> Vec<FaultKind> {
        let mut due = Vec::new();
        self.pending.retain(|spec| {
            if spec.instret <= instret {
                due.push(spec.kind);
                false
            } else {
                true
            }
        });
        due
    }

    /// Appends a log entry.
    pub(crate) fn record(&mut self, entry: AppliedFault) {
        self.applied.push(entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_faults_fire_in_schedule_order() {
        let mut plan = FaultPlan::new()
            .at(10, FaultKind::MemWrite { addr: 1, value: 2 })
            .at(5, FaultKind::ClbPoison { xor: 3 })
            .at(100, FaultKind::MemSwap { a: 0, b: 8 });
        let due = plan.take_due(10);
        assert_eq!(
            due,
            vec![
                FaultKind::MemWrite { addr: 1, value: 2 },
                FaultKind::ClbPoison { xor: 3 },
            ]
        );
        assert_eq!(plan.pending(), 1);
        assert!(plan.take_due(99).is_empty());
        assert_eq!(plan.take_due(100).len(), 1);
    }

    #[test]
    fn record_appends_to_the_log() {
        let mut plan = FaultPlan::new();
        plan.record(AppliedFault {
            instret: 7,
            kind: FaultKind::KeyTamper {
                ksel: 2,
                xor_w0: 1,
                xor_k0: 0,
            },
            effect: FaultEffect::Injected,
        });
        assert_eq!(plan.applied().len(), 1);
        assert_eq!(plan.applied()[0].instret, 7);
    }
}
