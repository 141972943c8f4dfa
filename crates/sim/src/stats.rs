//! Execution statistics.

use regvault_metrics::HistogramData;

/// Coarse instruction classification used for cycle accounting and
/// instruction-mix reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum InsnClass {
    Alu,
    Branch,
    Jump,
    Load,
    Store,
    Mul,
    Div,
    Csr,
    Crypto,
    System,
}

impl InsnClass {
    /// Every class, in declaration order.
    pub const ALL: [InsnClass; 10] = [
        InsnClass::Alu,
        InsnClass::Branch,
        InsnClass::Jump,
        InsnClass::Load,
        InsnClass::Store,
        InsnClass::Mul,
        InsnClass::Div,
        InsnClass::Csr,
        InsnClass::Crypto,
        InsnClass::System,
    ];
}

/// Counters accumulated while the machine runs: the one place the machine
/// and the kernel count. Snapshots carry every field, so the counts follow
/// the machine through fork and restore, and `Stats::default()` zeroes
/// them all in `Machine::reset_stats`.
///
/// Per-class retirement counts live in a fixed array indexed by the class
/// discriminant (the retire path runs once per emulated instruction, so a
/// tree-map entry per retirement was measurable overhead); read them through
/// [`Stats::class_count`].
///
/// # Examples
///
/// ```
/// use regvault_sim::Stats;
///
/// let stats = Stats::default();
/// assert_eq!(stats.cycles, 0);
/// assert_eq!(stats.instret, 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub instret: u64,
    /// Retired instructions by class discriminant.
    class_counts: [u64; InsnClass::ALL.len()],
    /// Executed `cre` instructions.
    pub encrypts: u64,
    /// Executed `crd` instructions.
    pub decrypts: u64,
    /// Integrity-check failures raised by `crd`.
    pub integrity_failures: u64,
    /// Architectural exceptions delivered.
    pub exceptions: u64,
    /// Timer interrupts delivered.
    pub timer_interrupts: u64,
    /// Fetches served by the decoded-instruction cache.
    pub decode_hits: u64,
    /// Fetches that ran the full decoder.
    pub decode_misses: u64,
    /// Key-register writes (each flushes the key's CLB entries).
    pub key_invalidations: u64,
    /// Fresh rekey epochs issued (`Machine::issue_key_epoch`).
    pub epoch_rekeys: u64,
    /// QARMA block computations, i.e. CLB misses, by key selector
    /// (`m`, `a`..`g`).
    pub qarma_ops: [u64; 8],
    /// Syscalls the kernel dispatched.
    pub sched_syscalls: u64,
    /// Thread switches.
    pub sched_context_switches: u64,
    /// Timer interrupts that switched threads.
    pub sched_preemptions: u64,
    /// Cycles from syscall entry to return, one observation per syscall
    /// that returned.
    pub syscall_cycles: HistogramData,
    /// Cycles between consecutive thread switches.
    pub timeslice_cycles: HistogramData,
    /// `cycles` at the last thread switch: the start of the running
    /// timeslice. It lives beside `cycles` so a reset, fork or restore
    /// moves both together.
    pub(crate) last_switch_cycle: u64,
}

/// A scheduler event the kernel counts into [`Stats`] through
/// `Machine::record_sched`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedEvent {
    /// A syscall entered the kernel.
    Syscall,
    /// A syscall returned after `cycles` simulated cycles.
    SyscallReturn {
        /// Cycles from entry to return.
        cycles: u64,
    },
    /// The scheduler switched threads, ending the running timeslice.
    ContextSwitch,
    /// A timer interrupt preempted the running thread.
    Preemption,
}

impl Stats {
    /// Records one retired instruction of `class` costing `cycles`.
    #[inline]
    pub fn retire(&mut self, class: InsnClass, cycles: u64) {
        self.cycles += cycles;
        self.instret += 1;
        self.class_counts[class as usize] += 1;
    }

    /// Records `count` retired instructions of `class`, each costing
    /// `cycles` — the batched form the kernel's straight-line charge path
    /// uses.
    #[inline]
    pub fn retire_n(&mut self, class: InsnClass, cycles: u64, count: u64) {
        self.cycles += cycles * count;
        self.instret += count;
        self.class_counts[class as usize] += count;
    }

    /// Count of retired instructions in `class`.
    #[must_use]
    pub fn class_count(&self, class: InsnClass) -> u64 {
        self.class_counts[class as usize]
    }

    /// The raw per-class retirement array (snapshot support).
    pub(crate) fn class_counts(&self) -> [u64; InsnClass::ALL.len()] {
        self.class_counts
    }

    /// Overwrites the per-class retirement array (snapshot restore).
    pub(crate) fn set_class_counts(&mut self, counts: [u64; InsnClass::ALL.len()]) {
        self.class_counts = counts;
    }

    /// Fraction of retired instructions that were RegVault crypto ops.
    #[must_use]
    pub fn crypto_fraction(&self) -> f64 {
        if self.instret == 0 {
            0.0
        } else {
            self.class_count(InsnClass::Crypto) as f64 / self.instret as f64
        }
    }

    /// The scalar architectural counts, named and ordered as
    /// `Machine::metrics` exports them: every count except the per-class
    /// retirements, the decode-cache counters (microarchitectural), the
    /// histograms and the timeslice anchor. `Machine::arch_digest` hashes
    /// these, and lockstep names the first one that differs.
    pub(crate) fn arch_counts(&self) -> [(&'static str, u64); 20] {
        let q = self.qarma_ops;
        [
            ("key_invalidations", self.key_invalidations),
            ("qarma_ops_ksel_m", q[0]),
            ("qarma_ops_ksel_a", q[1]),
            ("qarma_ops_ksel_b", q[2]),
            ("qarma_ops_ksel_c", q[3]),
            ("qarma_ops_ksel_d", q[4]),
            ("qarma_ops_ksel_e", q[5]),
            ("qarma_ops_ksel_f", q[6]),
            ("qarma_ops_ksel_g", q[7]),
            ("epoch_rekeys", self.epoch_rekeys),
            ("sched_context_switches", self.sched_context_switches),
            ("sched_preemptions", self.sched_preemptions),
            ("sched_syscalls", self.sched_syscalls),
            ("cycles", self.cycles),
            ("instret", self.instret),
            ("crypto_encrypts", self.encrypts),
            ("crypto_decrypts", self.decrypts),
            ("integrity_failures", self.integrity_failures),
            ("exceptions", self.exceptions),
            ("timer_interrupts", self.timer_interrupts),
        ]
    }

    /// Counts one scheduler event.
    pub(crate) fn record_sched(&mut self, event: SchedEvent) {
        match event {
            SchedEvent::Syscall => self.sched_syscalls += 1,
            SchedEvent::SyscallReturn { cycles } => self.syscall_cycles.record(cycles),
            SchedEvent::ContextSwitch => {
                self.sched_context_switches += 1;
                self.timeslice_cycles
                    .record(self.cycles - self.last_switch_cycle);
                self.last_switch_cycle = self.cycles;
            }
            SchedEvent::Preemption => self.sched_preemptions += 1,
        }
    }

    /// Decode-cache hit ratio in `[0, 1]`; zero before any fetch.
    #[must_use]
    pub fn decode_hit_ratio(&self) -> f64 {
        let total = self.decode_hits + self.decode_misses;
        if total == 0 {
            0.0
        } else {
            self.decode_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retire_accumulates() {
        let mut stats = Stats::default();
        stats.retire(InsnClass::Alu, 1);
        stats.retire(InsnClass::Crypto, 3);
        stats.retire(InsnClass::Crypto, 1);
        assert_eq!(stats.cycles, 5);
        assert_eq!(stats.instret, 3);
        assert_eq!(stats.class_count(InsnClass::Crypto), 2);
        assert!((stats.crypto_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn retire_n_matches_a_loop_of_retires() {
        let mut batched = Stats::default();
        batched.retire_n(InsnClass::Load, 2, 5);
        let mut looped = Stats::default();
        for _ in 0..5 {
            looped.retire(InsnClass::Load, 2);
        }
        assert_eq!(batched, looped);
    }

    #[test]
    fn timeslices_run_from_switch_to_switch() {
        let mut stats = Stats::default();
        stats.retire_n(InsnClass::Alu, 1, 100);
        stats.record_sched(SchedEvent::ContextSwitch);
        stats.retire_n(InsnClass::Alu, 1, 30);
        stats.record_sched(SchedEvent::ContextSwitch);
        assert_eq!(stats.sched_context_switches, 2);
        assert_eq!(stats.timeslice_cycles.min(), Some(30));
        assert_eq!(stats.timeslice_cycles.max(), Some(100));
        assert_eq!(stats.last_switch_cycle, 130);
    }

    #[test]
    fn empty_stats_have_zero_fraction() {
        assert_eq!(Stats::default().crypto_fraction(), 0.0);
        assert_eq!(Stats::default().decode_hit_ratio(), 0.0);
    }
}
