//! The complete simulated machine: hart + memory + crypto-engine + clock.

use regvault_isa::{ByteRange, KeyReg};
use regvault_metrics::Metrics;
use regvault_qarma::Key;

use crate::{
    cost::{CostModel, ModelledPath},
    engine::{CryptoEngine, CryptoResult, IntegrityError, Watchdog},
    error::{ExceptionCause, SimError},
    exec,
    fault::{AppliedFault, FaultEffect, FaultKind, FaultPlan},
    hart::{Hart, Privilege},
    icache::DecodeCache,
    mem::Memory,
    stats::{InsnClass, SchedEvent, Stats},
    superblock::{self, SuperblockCache, SuperblockStats},
    trace::{RingTracer, TraceEvent, TraceRecord, Tracer},
};

/// Construction parameters for a [`Machine`].
///
/// # Examples
///
/// ```
/// use regvault_sim::MachineConfig;
///
/// let config = MachineConfig {
///     clb_entries: 16,
///     ..MachineConfig::default()
/// };
/// assert_eq!(config.clb_entries, 16);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MachineConfig {
    /// CLB entries (0 disables the buffer; the paper's prototype uses 8).
    pub clb_entries: usize,
    /// Cycle cost model.
    pub cost: CostModel,
    /// Seed for hardware randomness (master key).
    pub seed: u64,
    /// Deliver a timer interrupt every this many cycles (None = no timer).
    pub timer_interval: Option<u64>,
    /// Run the reference datapath: cell-level QARMA instead of the SWAR
    /// core, naive linear-scan CLB instead of the indexed one. Slow and
    /// architecturally identical by construction — the co-execution target
    /// of [`crate::lockstep`].
    pub reference_datapath: bool,
    /// Enable the superblock translation tier (on by default): hot basic
    /// blocks are pre-translated into threaded-code traces and
    /// dispatched whole. Architecturally invisible — the tier only enters
    /// a block when it can prove no timer, fault, watchdog or step-budget
    /// boundary lands inside it. Disable to force pure single-stepping
    /// (the reference semantics for differential testing).
    pub superblock_tier: bool,
    /// Nonce-diversified rekey (ciphertext side-channel mitigation, off by
    /// default): privileged software may issue fresh per-`ksel` rekey
    /// epochs that the engine folds into every tweak, so re-encrypting the
    /// same plaintext at the same address yields an unlinkable ciphertext.
    /// With the knob off no epoch is ever issued and every ciphertext is
    /// bit-identical to a build without the mitigation (epoch 0 is the
    /// identity fold).
    pub epoch_rekey: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            clb_entries: 8,
            cost: CostModel::default(),
            seed: 0x5EED_0001,
            timer_interval: None,
            reference_datapath: false,
            superblock_tier: true,
            epoch_rekey: false,
        }
    }
}

/// A control transfer out of the guest, handed to the embedder.
///
/// The miniature kernel in `regvault-kernel` acts as the privileged
/// software: it receives these events from [`Machine::run`] and manipulates
/// machine state in response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// `ebreak` executed (used by bare-metal programs as a halt).
    Break,
    /// `ecall` executed; `pc` still points at the `ecall` instruction.
    Ecall {
        /// Privilege level the call was made from.
        from: Privilege,
    },
    /// An architectural exception; `pc` still points at the faulting
    /// instruction.
    Exception {
        /// The exception cause.
        cause: ExceptionCause,
        /// Faulting address or instruction bits.
        tval: u64,
    },
    /// The cycle timer fired (between instructions).
    TimerInterrupt,
}

/// The simulated RegVault machine.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Machine {
    pub(crate) hart: Hart,
    pub(crate) mem: Memory,
    pub(crate) icache: DecodeCache,
    pub(crate) engine: CryptoEngine,
    pub(crate) cost: CostModel,
    pub(crate) stats: Stats,
    pub(crate) seed: u64,
    pub(crate) timer_interval: Option<u64>,
    pub(crate) next_timer: u64,
    pub(crate) tracer: Option<Box<dyn Tracer>>,
    pub(crate) fault_plan: Option<FaultPlan>,
    /// The fault clock: the earliest pending instret of `fault_plan`,
    /// `u64::MAX` when nothing is pending. Every poll is one compare
    /// against it; every writer of the plan's schedule refreshes it:
    /// `set_fault_plan`, `clear_fault_plan` (snapshot load goes through
    /// those two) and the poll's slow path.
    pub(crate) fault_due: u64,
    pub(crate) watchdog: Option<Watchdog>,
    /// When recording, every applied fault is also appended here with its
    /// retired-instruction timestamp — the nondeterministic-input log that
    /// record/replay serializes into repro bundles.
    pub(crate) recorder: Option<crate::replay::EventLog>,
    /// Superblock tier state: translated traces, boundary profile,
    /// counters. Microarchitectural (never snapshotted; restore resets it).
    pub(crate) sb: SuperblockCache,
    /// Master switch for the tier ([`MachineConfig::superblock_tier`]).
    pub(crate) sb_enabled: bool,
    /// Master switch for nonce-diversified rekey
    /// ([`MachineConfig::epoch_rekey`]). Gates the kernel-facing epoch
    /// wrappers; the engine's fold itself is unconditional (epoch 0 is the
    /// identity).
    pub(crate) epoch_rekey: bool,
    /// `true` when the current pc was reached by a control transfer (or an
    /// event), i.e. it is a block boundary worth profiling. Purely a
    /// profiling heuristic — entering a cached block is correct from any
    /// path.
    pub(crate) sb_boundary: bool,
}

/// Compile-time guard that forked machines can move across worker threads.
///
/// The fleet hands [`Machine::fork_from`] results straight to a
/// work-stealing pool, so `Machine: Send` is load-bearing. Every concrete
/// field is `Send` structurally; the one type-erased hole is the tracer,
/// whose trait carries the bound (`Tracer: Send`). If any future field
/// (an `Rc`, a non-`Send` trait object) breaks this, the build fails here
/// rather than at a distant spawn site.
const fn assert_send<T: Send>() {}
const _: () = assert_send::<Machine>();

impl Machine {
    /// Builds a machine from `config`.
    #[must_use]
    pub fn new(config: MachineConfig) -> Self {
        let engine = if config.reference_datapath {
            CryptoEngine::new_reference(config.clb_entries, config.seed)
        } else {
            CryptoEngine::new(config.clb_entries, config.seed)
        };
        Self {
            hart: Hart::new(),
            mem: Memory::new(),
            icache: DecodeCache::new(),
            engine,
            cost: config.cost,
            stats: Stats::default(),
            seed: config.seed,
            timer_interval: config.timer_interval,
            next_timer: config.timer_interval.unwrap_or(u64::MAX),
            tracer: None,
            fault_plan: None,
            fault_due: u64::MAX,
            watchdog: None,
            recorder: None,
            sb: SuperblockCache::default(),
            sb_enabled: config.superblock_tier,
            sb_boundary: true,
            epoch_rekey: config.epoch_rekey,
        }
    }

    // --- Tracing --------------------------------------------------------

    /// Enables structured event tracing into a [`RingTracer`] holding the
    /// last `capacity` records (inspect through [`Machine::ring_trace`]).
    /// Tracing is off by default and costs one not-taken branch per
    /// emission site while off.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.tracer = Some(Box::new(RingTracer::new(capacity)));
    }

    /// Installs an arbitrary [`Tracer`] sink (replacing any existing one).
    pub fn install_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.tracer = Some(tracer);
    }

    /// Removes and returns the installed tracer, if any. Downcast through
    /// [`Tracer::into_any`] to recover the concrete sink.
    pub fn take_tracer(&mut self) -> Option<Box<dyn Tracer>> {
        self.tracer.take()
    }

    /// `true` while a tracer is installed.
    #[must_use]
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// The ring buffer installed by [`Machine::enable_trace`], if that is
    /// the active tracer.
    #[must_use]
    pub fn ring_trace(&self) -> Option<&RingTracer> {
        self.tracer
            .as_deref()
            .and_then(|t| t.as_any().downcast_ref::<RingTracer>())
    }

    /// Emits one event to the installed tracer, stamped with the current
    /// cycle/instret clock. No-op (one branch) when tracing is off. This is
    /// the embedder hook: the kernel reports trap entry/exit, CIP chain
    /// activity and context switches through it.
    #[inline]
    pub fn trace_emit(&mut self, event: TraceEvent) {
        self.emit_trace(|| event);
    }

    /// Hot-path emission: the event value is only constructed when a tracer
    /// is installed, so the off path is a single branch.
    #[inline]
    pub(crate) fn emit_trace(&mut self, make: impl FnOnce() -> TraceEvent) {
        if self.tracer.is_some() {
            let record = TraceRecord {
                cycle: self.stats.cycles,
                instret: self.stats.instret,
                event: make(),
            };
            if let Some(tracer) = self.tracer.as_mut() {
                tracer.emit(record);
            }
        }
    }

    // --- Metrics --------------------------------------------------------

    /// A point-in-time export of every count, named and in a fixed order:
    /// the simulator's own counters, the kernel's scheduler counters and
    /// histograms, then the counters of [`Stats`], the CLB and the
    /// superblock tier. Every value is read from snapshotted state (or
    /// from the tier, which restore resets), so the export follows the
    /// machine through fork, restore and [`Machine::reset_stats`].
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        let stats = &self.stats;
        let clb = self.engine.clb().stats();
        let sb = self.sb.stats();
        let mut counters = stats.arch_counts().to_vec();
        counters.extend([
            ("decode_hits", stats.decode_hits),
            ("decode_misses", stats.decode_misses),
            ("clb_hits", clb.hits),
            ("clb_misses", clb.misses),
            ("clb_evictions", clb.evictions),
            ("clb_invalidations", clb.invalidations),
            ("clb_occupancy", self.engine.clb().occupancy() as u64),
            ("superblock_hits", sb.hits),
            ("superblock_insns", sb.insns),
            ("superblock_side_exits", sb.side_exits),
            ("superblock_built", sb.built),
            ("superblock_invalidations", sb.invalidations),
            ("superblock_cached", sb.cached as u64),
        ]);
        Metrics {
            counters,
            histograms: vec![
                ("syscall_cycles", stats.syscall_cycles.clone()),
                ("timeslice_cycles", stats.timeslice_cycles.clone()),
            ],
        }
    }

    /// Counts a scheduler event of the embedding kernel into [`Stats`]. A
    /// context switch also records the timeslice it ends.
    pub fn record_sched(&mut self, event: SchedEvent) {
        self.stats.record_sched(event);
    }

    /// The hart (register/PC/privilege state).
    #[must_use]
    pub fn hart(&self) -> &Hart {
        &self.hart
    }

    /// Mutable hart access.
    pub fn hart_mut(&mut self) -> &mut Hart {
        &mut self.hart
    }

    /// Physical memory.
    #[must_use]
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Mutable memory access (this is also the attacker's arbitrary
    /// read/write primitive in the penetration tests).
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// The crypto-engine (key registers + CLB).
    #[must_use]
    pub fn engine(&self) -> &CryptoEngine {
        &self.engine
    }

    /// Mutable crypto-engine access.
    pub fn engine_mut(&mut self) -> &mut CryptoEngine {
        &mut self.engine
    }

    /// Execution statistics so far.
    #[must_use]
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Zeroes every count: [`Stats`] (the kernel's scheduler counters,
    /// histograms and timeslice anchor included), the CLB statistics and
    /// the superblock tier's counters. Memory, registers, keys and cached
    /// translations are kept.
    pub fn reset_stats(&mut self) {
        self.stats = Stats::default();
        self.engine.clb_mut().reset_stats();
        self.next_timer = self.timer_interval.unwrap_or(u64::MAX);
        // Zero the tier's counters but keep its translated traces warm —
        // reset_stats separates measurement epochs, it doesn't cool caches.
        self.sb.reset_counters();
    }

    /// Copies a program image into memory at `addr`.
    pub fn load_program(&mut self, addr: u64, bytes: &[u8]) {
        self.mem.write_slice(addr, bytes);
    }

    /// Kernel-privilege write of a general key register (both halves).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::PrivilegeViolation`] for the master key, which no
    /// software may write (§2.3.1).
    pub fn write_key_register(&mut self, key: KeyReg, w0: u64, k0: u64) -> Result<(), SimError> {
        if key.is_master() {
            return Err(SimError::PrivilegeViolation(
                "the master key register is not software-writable".into(),
            ));
        }
        self.engine.write_key(key, Key::new(w0, k0));
        self.stats.key_invalidations += 1;
        self.emit_trace(|| TraceEvent::ClbInvalidate { ksel: key.ksel() });
        self.stats.retire(InsnClass::Csr, self.cost.alu);
        self.stats.retire(InsnClass::Csr, self.cost.alu);
        Ok(())
    }

    /// Writes one half of a key register through the engine, counting and
    /// tracing the CLB invalidation it triggers (the guest `csrw` datapath;
    /// privilege is checked by the executor).
    pub(crate) fn write_key_half_traced(&mut self, key: KeyReg, high_half: bool, value: u64) {
        self.engine.write_key_half(key, high_half, value);
        self.stats.key_invalidations += 1;
        self.emit_trace(|| TraceEvent::ClbInvalidate { ksel: key.ksel() });
    }

    /// `true` when nonce-diversified rekey is enabled
    /// ([`MachineConfig::epoch_rekey`]). The kernel consults this before
    /// issuing epochs so a machine with the knob off never leaves epoch 0.
    #[must_use]
    pub fn epoch_rekey(&self) -> bool {
        self.epoch_rekey
    }

    /// Issues a fresh rekey epoch for `key` and returns it, counting the
    /// rekey in [`Stats::epoch_rekeys`]. See
    /// [`CryptoEngine::issue_epoch`].
    pub fn issue_key_epoch(&mut self, key: KeyReg) -> u64 {
        self.stats.epoch_rekeys += 1;
        self.engine.issue_epoch(key)
    }

    /// Restores a previously issued rekey epoch for `key` (context-switch
    /// restore path). See [`CryptoEngine::set_epoch`].
    pub fn set_key_epoch(&mut self, key: KeyReg, epoch: u64) {
        self.engine.set_epoch(key, epoch);
    }

    /// Central encrypt datapath: runs the engine, maintains the hot
    /// counters, and emits CLB/QARMA trace events when tracing is on. Both
    /// the guest `cre` executor and [`Machine::kernel_encrypt`] route
    /// through here so metrics and traces agree with [`ClbStats`].
    #[inline]
    pub(crate) fn engine_encrypt(
        &mut self,
        key: KeyReg,
        tweak: u64,
        value: u64,
        range: ByteRange,
    ) -> CryptoResult {
        let evictions_before = if self.tracer.is_some() {
            self.engine.clb().stats().evictions
        } else {
            0
        };
        let result = self.engine.encrypt(key, tweak, value, range);
        let ksel = key.ksel();
        if result.clb_hit {
            self.emit_trace(|| TraceEvent::ClbHit {
                ksel,
                decrypt: false,
            });
        } else {
            self.stats.qarma_ops[ksel as usize] += 1;
            if self.tracer.is_some() {
                self.trace_emit(TraceEvent::ClbMiss {
                    ksel,
                    decrypt: false,
                });
                // Report the effective (epoch-folded) tweak — the value the
                // cipher actually consumed.
                self.trace_emit(TraceEvent::QarmaOp {
                    ksel,
                    tweak: self.engine.effective_tweak(key, tweak),
                    decrypt: false,
                });
                if self.engine.clb().stats().evictions > evictions_before {
                    self.trace_emit(TraceEvent::ClbEvict { ksel });
                }
            }
        }
        result
    }

    /// Central decrypt datapath; see [`Machine::engine_encrypt`]. The error
    /// path carries no hit flag, so hit/miss classification falls back to
    /// the CLB hit-counter delta.
    #[inline]
    pub(crate) fn engine_decrypt(
        &mut self,
        key: KeyReg,
        tweak: u64,
        ciphertext: u64,
        range: ByteRange,
    ) -> Result<CryptoResult, IntegrityError> {
        let before = self.engine.clb().stats();
        let outcome = self.engine.decrypt(key, tweak, ciphertext, range);
        let clb_hit = match &outcome {
            Ok(result) => result.clb_hit,
            Err(_) => self.engine.clb().stats().hits > before.hits,
        };
        let ksel = key.ksel();
        if clb_hit {
            self.emit_trace(|| TraceEvent::ClbHit {
                ksel,
                decrypt: true,
            });
        } else {
            self.stats.qarma_ops[ksel as usize] += 1;
            if self.tracer.is_some() {
                self.trace_emit(TraceEvent::ClbMiss {
                    ksel,
                    decrypt: true,
                });
                self.trace_emit(TraceEvent::QarmaOp {
                    ksel,
                    tweak: self.engine.effective_tweak(key, tweak),
                    decrypt: true,
                });
                if self.engine.clb().stats().evictions > before.evictions {
                    self.trace_emit(TraceEvent::ClbEvict { ksel });
                }
            }
        }
        outcome
    }

    // --- Fault injection and watchdog ----------------------------------

    /// Installs a [`FaultPlan`]; due faults are applied as the machine runs.
    /// Replaces any existing plan, discarding its applied-fault log.
    ///
    /// The machine polls the plan on every step, after every charged
    /// instruction class and before every kernel load, store, `cre` and
    /// `crd`, so a fault lands at the first poll point at or after its
    /// instret. A poll is one compare against the plan's earliest pending
    /// instret ([`Machine::next_fault_due`]) until that instret is reached,
    /// so the cost of an armed plan does not grow with its size.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_due = plan.next_due();
        self.fault_plan = Some(plan);
    }

    /// The installed fault plan (schedule plus applied-fault log), if any.
    /// A plan whose every fault has fired stays installed (with
    /// `pending() == 0`) until it is cleared or replaced.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Removes and returns the installed fault plan.
    pub fn clear_fault_plan(&mut self) -> Option<FaultPlan> {
        self.fault_due = u64::MAX;
        self.fault_plan.take()
    }

    /// The retired-instruction count at which the installed plan's next
    /// fault comes due: the earliest pending instret, `u64::MAX` when no
    /// plan is installed or nothing is pending.
    #[must_use]
    pub fn next_fault_due(&self) -> u64 {
        self.fault_due
    }

    /// Applies one fault immediately and records it in the applied-fault
    /// log (creating an empty plan to hold the log if none is installed).
    ///
    /// This is the attacker/campaign primitive for faults that must land at
    /// a precise point in host-driven code rather than at an instruction
    /// count.
    pub fn inject_fault(&mut self, kind: FaultKind) -> FaultEffect {
        if let Some(log) = self.recorder.as_mut() {
            log.push(self.stats.instret, kind);
        }
        let effect = self.apply_fault(kind);
        self.emit_trace(|| TraceEvent::Fault { kind, effect });
        let entry = AppliedFault {
            instret: self.stats.instret,
            kind,
            effect,
        };
        self.fault_plan
            .get_or_insert_with(FaultPlan::default)
            .record(entry);
        effect
    }

    /// Arms (or re-arms) the step-budget watchdog: after `budget` units of
    /// work — stepped instructions plus kernel-charged operations — the next
    /// [`Machine::step`] returns [`SimError::Timeout`] instead of running.
    pub fn arm_watchdog(&mut self, budget: u64) {
        self.watchdog = Some(Watchdog::new(budget));
    }

    /// Disarms the watchdog.
    pub fn disarm_watchdog(&mut self) {
        self.watchdog = None;
    }

    /// The armed watchdog, if any.
    #[must_use]
    pub fn watchdog(&self) -> Option<&Watchdog> {
        self.watchdog.as_ref()
    }

    /// The fault clock: applies every fault due at the current
    /// retired-instruction count. One compare until a fault is due.
    #[inline]
    fn poll_faults(&mut self) {
        if self.stats.instret >= self.fault_due {
            self.fire_due_faults();
        }
    }

    /// The poll's slow path: applies and records every due fault in
    /// schedule order, then moves the clock to the next pending one.
    #[inline(never)]
    fn fire_due_faults(&mut self) {
        // Take/restore so the applied-fault handlers can borrow `self`
        // mutably without aliasing the plan.
        let Some(mut plan) = self.fault_plan.take() else {
            return;
        };
        for kind in plan.take_due(self.stats.instret) {
            if let Some(log) = self.recorder.as_mut() {
                log.push(self.stats.instret, kind);
            }
            let effect = self.apply_fault(kind);
            self.emit_trace(|| TraceEvent::Fault { kind, effect });
            plan.record(AppliedFault {
                instret: self.stats.instret,
                kind,
                effect,
            });
        }
        self.fault_due = plan.next_due();
        self.fault_plan = Some(plan);
    }

    fn apply_fault(&mut self, kind: FaultKind) -> FaultEffect {
        match kind {
            FaultKind::MemBitFlip { addr, bit } => match self.mem.read_u64(addr) {
                Ok(word) => {
                    let flipped = word ^ (1u64 << (bit % 64));
                    self.mem.write_slice(addr, &flipped.to_le_bytes());
                    FaultEffect::Injected
                }
                Err(_) => FaultEffect::SkippedUnmapped,
            },
            FaultKind::MemWrite { addr, value } => {
                // Sparse memory maps on touch: an arbitrary write always
                // lands, matching the attacker primitive it models.
                self.mem.write_slice(addr, &value.to_le_bytes());
                FaultEffect::Injected
            }
            FaultKind::MemSwap { a, b } => match (self.mem.read_u64(a), self.mem.read_u64(b)) {
                (Ok(word_a), Ok(word_b)) => {
                    self.mem.write_slice(a, &word_b.to_le_bytes());
                    self.mem.write_slice(b, &word_a.to_le_bytes());
                    FaultEffect::Injected
                }
                _ => FaultEffect::SkippedUnmapped,
            },
            FaultKind::KeyTamper {
                ksel,
                xor_w0,
                xor_k0,
            } => {
                if xor_w0 == 0 && xor_k0 == 0 {
                    FaultEffect::SkippedNoTarget
                } else {
                    self.engine.key_file_mut().tamper(ksel, xor_w0, xor_k0);
                    FaultEffect::Injected
                }
            }
            FaultKind::ClbPoison { xor } => {
                if self.engine.clb_mut().poison_mru(xor) {
                    FaultEffect::Injected
                } else {
                    FaultEffect::SkippedNoTarget
                }
            }
        }
    }

    /// Executes one instruction (or delivers a pending timer interrupt).
    ///
    /// Returns `Some(event)` when control must pass to the embedder.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Timeout`] when an armed watchdog budget is
    /// exhausted. Guest faults are never errors — they are reported as
    /// [`Event::Exception`].
    pub fn step(&mut self) -> Result<Option<Event>, SimError> {
        if let Some(dog) = &mut self.watchdog {
            if dog.expired() {
                return Err(SimError::Timeout {
                    budget: dog.budget(),
                });
            }
            dog.consume(1);
        }
        if self.stats.cycles >= self.next_timer {
            self.next_timer = self.stats.cycles + self.timer_interval.unwrap_or(u64::MAX);
            self.stats.timer_interrupts += 1;
            return Ok(Some(Event::TimerInterrupt));
        }
        self.poll_faults();
        Ok(exec::step(self))
    }

    /// Executes up to `budget` architectural steps as one unit: a chain of
    /// whole superblocks when the tier can prove equivalence, otherwise
    /// exactly one interpreter step. Returns how many [`Machine::step`]
    /// equivalents were consumed plus the event (if any) the final step
    /// produced.
    ///
    /// This is the dispatch loop under [`Machine::run`]; it is public so
    /// that [`crate::run_lockstep`] can drive the tier one epoch at a time
    /// and align it against a reference single-stepped with
    /// [`Machine::step`], which never enters the tier.
    ///
    /// # Errors
    ///
    /// Exactly like [`Machine::step`]: [`SimError::Timeout`] when an armed
    /// watchdog budget is exhausted.
    pub fn step_tier(&mut self, budget: u64) -> Result<(u64, Option<Event>), SimError> {
        if self.sb_enabled && self.sb_boundary && self.tracer.is_none() {
            if let Some(outcome) = self.try_superblock(budget) {
                return Ok(outcome);
            }
        }
        let pc_before = self.hart.pc();
        let event = self.step()?;
        // A non-sequential pc marks the next instruction as a block
        // boundary worth profiling.
        self.sb_boundary = event.is_some() || self.hart.pc() != pc_before.wrapping_add(4);
        Ok((1, event))
    }

    /// Dispatches superblocks from the current pc, chained: when a block
    /// exits cleanly, the next pc's cached block runs straight away, so a
    /// hot loop stays in the tier across its blocks. Every block passes the
    /// full entry precheck ([`Machine::block_fits`]) first, with the budget
    /// the blocks before it left. `None` falls back to single-stepping: no
    /// valid block here (or not yet hot), or the precheck cannot rule out
    /// an observation point inside the first block.
    fn try_superblock(&mut self, budget: u64) -> Option<(u64, Option<Event>)> {
        let mut consumed = 0;
        while let Some(index) = self.sb.enter(self.hart.pc(), &self.mem, &self.cost) {
            let (len, max_cycles) = self.sb.bounds(index);
            if !self.block_fits(len, max_cycles, budget - consumed) {
                break;
            }
            let block = self.sb.take(index);
            // A block that exits cleanly to its own entry runs again
            // without the probe: a clean exit proves no store touched its
            // page (one would have side-exited), so the probe's generation
            // check would pass. The precheck still runs before every pass.
            let exit = loop {
                let exit = superblock::execute(self, &block);
                consumed += exit.consumed;
                self.sb.hits += 1;
                self.sb.insns += exit.retired;
                // The trace *is* the decoded form: account its instructions
                // as decode-cache hits, like the interpreter path would.
                self.stats.decode_hits += exit.retired;
                if let Some(dog) = &mut self.watchdog {
                    dog.consume(exit.consumed);
                }
                if exit.side_exit
                    || self.hart.pc() != block.entry_pc()
                    || !self.block_fits(len, max_cycles, budget - consumed)
                {
                    break exit;
                }
            };
            self.sb.put_back(index, block);
            // A side exit (an exception, or a store into the block's own
            // page) ends the chain; wherever it left the pc, the next
            // instruction starts at a boundary.
            if exit.side_exit {
                self.sb.side_exits += 1;
                self.sb_boundary = true;
                return Some((consumed, exit.event));
            }
        }
        if consumed == 0 {
            return None;
        }
        // The chain stopped at a pc it already probed (and warmed): the
        // next step runs it on the interpreter, as an unchained block
        // boundary that found no block would.
        self.sb_boundary = false;
        Some((consumed, None))
    }

    /// The entry precheck of a block of `len` instructions costing at most
    /// `max_cycles`: it may run only when no observation point can fall
    /// inside it — no tracer installed, at least `len` steps of `budget`
    /// and of the watchdog left, no timer within `max_cycles`, and no
    /// planned fault due within `len` retires.
    fn block_fits(&self, len: u64, max_cycles: u64, budget: u64) -> bool {
        if self.tracer.is_some() || len > budget {
            return false;
        }
        if let Some(dog) = &self.watchdog {
            // `remaining >= len` means every one of the `len` single steps
            // would have passed its own expiry check.
            if dog.expired() || dog.remaining() < len {
                return false;
            }
        }
        // Strict bound: cycles only grow, so if the block's worst case
        // stays below `next_timer`, no sub-step could have delivered the
        // timer.
        if self.stats.cycles.saturating_add(max_cycles) >= self.next_timer {
            return false;
        }
        // The fault clock is the same one the step's poll reads; with
        // nothing pending it is `u64::MAX` and never refuses a block.
        self.fault_due > self.stats.instret.saturating_add(len)
    }

    /// Counters for the superblock translation tier.
    #[must_use]
    pub fn superblock_stats(&self) -> SuperblockStats {
        self.sb.stats()
    }

    /// Enables or disables the superblock tier at runtime. Off forces pure
    /// single-stepping — the reference semantics differential harnesses
    /// compare against.
    pub fn set_superblock_tier(&mut self, enabled: bool) {
        self.sb_enabled = enabled;
    }

    /// `true` while the superblock tier may dispatch traces.
    #[must_use]
    pub fn superblock_tier(&self) -> bool {
        self.sb_enabled
    }

    /// Runs until an [`Event`] occurs.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::StepLimitExceeded`] after `max_steps`
    /// instructions without an event.
    pub fn run(&mut self, max_steps: u64) -> Result<Event, SimError> {
        let mut steps = 0u64;
        while steps < max_steps {
            let (consumed, event) = self.step_tier(max_steps - steps)?;
            steps += consumed;
            if let Some(event) = event {
                return Ok(event);
            }
        }
        Err(SimError::StepLimitExceeded { limit: max_steps })
    }

    /// Runs a bare-metal program to its terminating `ebreak`.
    ///
    /// # Errors
    ///
    /// Any event other than [`Event::Break`] is reported as
    /// [`SimError::UnhandledException`]; exceeding `max_steps` yields
    /// [`SimError::StepLimitExceeded`].
    pub fn run_until_break(&mut self, max_steps: u64) -> Result<(), SimError> {
        match self.run(max_steps)? {
            Event::Break => Ok(()),
            Event::Ecall { from } => Err(SimError::UnhandledException {
                cause: match from {
                    Privilege::User => ExceptionCause::EcallFromUser,
                    Privilege::Kernel => ExceptionCause::EcallFromKernel,
                },
                pc: self.hart.pc(),
                tval: 0,
            }),
            Event::Exception { cause, tval } => Err(SimError::UnhandledException {
                cause,
                pc: self.hart.pc(),
                tval,
            }),
            Event::TimerInterrupt => Err(SimError::UnhandledException {
                cause: ExceptionCause::Breakpoint,
                pc: self.hart.pc(),
                tval: u64::MAX,
            }),
        }
    }

    /// Advances `pc` past the instruction that raised the current event
    /// (used by the kernel after servicing an `ecall`).
    pub fn advance_pc(&mut self) {
        let pc = self.hart.pc();
        self.hart.set_pc(pc + 4);
    }

    // --- Kernel-operation helpers -------------------------------------
    //
    // The miniature kernel in `regvault-kernel` is written in Rust but its
    // work must consume simulated time and exercise the same hardware
    // datapaths as compiled kernel code would. These helpers execute the
    // corresponding hardware operation *and* charge its cycles.

    /// Charges `times` passes of a modelled path to the clock — how the
    /// Rust-modelled kernel and supervisor account for work they do
    /// without interpreting it. The row's classes are charged one at a
    /// time, in table order.
    ///
    /// Modelled work counts against an armed watchdog (expiry surfaces as
    /// [`SimError::Timeout`] at the next [`Machine::step`]) and advances
    /// the fault clock after each class, so planned faults can land inside
    /// kernel-modelled operations, not only between guest instructions.
    #[inline]
    pub fn charge_modelled(&mut self, path: ModelledPath, times: u64) {
        for &(class, count) in path.insns() {
            self.charge(class, count * times);
        }
    }

    /// Charges `count` instructions of `class`: retire, then the watchdog,
    /// then due faults.
    pub(crate) fn charge(&mut self, class: InsnClass, count: u64) {
        let cycles = self.cost.cycles(class, true, false);
        self.stats.retire_n(class, cycles, count);
        if let Some(dog) = &mut self.watchdog {
            dog.consume(count);
        }
        self.poll_faults();
    }

    /// Kernel-mode `cre`: encrypt, charging crypto cycles.
    pub fn kernel_encrypt(&mut self, key: KeyReg, tweak: u64, value: u64, range: ByteRange) -> u64 {
        self.poll_faults();
        let result = self.engine_encrypt(key, tweak, value, range);
        let cycles = self.cost.cycles(InsnClass::Crypto, false, result.clb_hit);
        self.stats.retire(InsnClass::Crypto, cycles);
        self.stats.encrypts += 1;
        if let Some(dog) = &mut self.watchdog {
            dog.consume(1);
        }
        result.value
    }

    /// Kernel-mode `crd`: decrypt + integrity check, charging crypto cycles.
    ///
    /// # Errors
    ///
    /// Returns the garbage plaintext when the integrity check fails; the
    /// kernel treats this as the hardware exception it is.
    pub fn kernel_decrypt(
        &mut self,
        key: KeyReg,
        tweak: u64,
        ciphertext: u64,
        range: ByteRange,
    ) -> Result<u64, u64> {
        self.poll_faults();
        let outcome = self.engine_decrypt(key, tweak, ciphertext, range);
        let clb_hit = outcome.as_ref().map(|r| r.clb_hit).unwrap_or(false);
        let cycles = self.cost.cycles(InsnClass::Crypto, false, clb_hit);
        self.stats.retire(InsnClass::Crypto, cycles);
        self.stats.decrypts += 1;
        if let Some(dog) = &mut self.watchdog {
            dog.consume(1);
        }
        match outcome {
            Ok(result) => Ok(result.value),
            Err(err) => {
                self.stats.integrity_failures += 1;
                Err(err.plaintext)
            }
        }
    }

    /// Kernel-mode 64-bit load with cycle accounting.
    ///
    /// # Errors
    ///
    /// Returns the exception cause on access faults.
    pub fn kernel_load_u64(&mut self, addr: u64) -> Result<u64, ExceptionCause> {
        // Poll before the access so a plan-scheduled fault at this instret
        // lands before the read, matching the inject_fault ordering a
        // recorded run observed (required for bit-for-bit replay).
        self.poll_faults();
        let value = self.mem.read_u64(addr)?;
        self.charge(InsnClass::Load, 1);
        Ok(value)
    }

    /// Kernel-mode 64-bit store with cycle accounting.
    ///
    /// # Errors
    ///
    /// Returns the exception cause on access faults.
    pub fn kernel_store_u64(&mut self, addr: u64, value: u64) -> Result<(), ExceptionCause> {
        self.poll_faults();
        self.mem.write_u64(addr, value)?;
        self.emit_trace(|| TraceEvent::MemStore { addr, value });
        self.charge(InsnClass::Store, 1);
        Ok(())
    }

    // --- Recording ------------------------------------------------------

    /// Starts appending every applied fault to a fresh [`EventLog`] stamped
    /// with this machine's seed and timer configuration. Replaces any
    /// in-progress recording.
    pub fn start_recording(&mut self) {
        self.recorder = Some(crate::replay::EventLog::new(self.seed, self.timer_interval));
    }

    /// Stops recording and returns the accumulated log, if any.
    pub fn stop_recording(&mut self) -> Option<crate::replay::EventLog> {
        self.recorder.take()
    }

    /// The in-progress recording, if any.
    #[must_use]
    pub fn recording(&self) -> Option<&crate::replay::EventLog> {
        self.recorder.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regvault_isa::Reg;

    #[test]
    fn master_key_write_is_rejected() {
        let mut machine = Machine::new(MachineConfig::default());
        assert!(matches!(
            machine.write_key_register(KeyReg::M, 1, 2),
            Err(SimError::PrivilegeViolation(_))
        ));
    }

    #[test]
    fn kernel_crypto_round_trip_charges_cycles() {
        let mut machine = Machine::new(MachineConfig::default());
        machine.write_key_register(KeyReg::A, 5, 6).unwrap();
        let before = machine.stats().cycles;
        let ct = machine.kernel_encrypt(KeyReg::A, 0x40, 0x1234, ByteRange::LOW32);
        let pt = machine
            .kernel_decrypt(KeyReg::A, 0x40, ct, ByteRange::LOW32)
            .unwrap();
        assert_eq!(pt, 0x1234);
        assert!(machine.stats().cycles > before);
        assert_eq!(machine.stats().encrypts, 1);
        assert_eq!(machine.stats().decrypts, 1);
    }

    #[test]
    fn timer_interrupt_fires_between_instructions() {
        let mut machine = Machine::new(MachineConfig {
            timer_interval: Some(10),
            ..MachineConfig::default()
        });
        let program = regvault_isa::asm::assemble(
            "loop: addi a0, a0, 1
                   j loop",
        )
        .unwrap();
        machine.load_program(0x8000_0000, program.bytes());
        machine.hart_mut().set_pc(0x8000_0000);
        let event = machine.run(1_000).unwrap();
        assert_eq!(event, Event::TimerInterrupt);
        assert!(machine.hart().reg(Reg::A0) > 0);
        assert_eq!(machine.stats().timer_interrupts, 1);
    }

    #[test]
    fn step_limit_is_reported() {
        let mut machine = Machine::new(MachineConfig::default());
        let program = regvault_isa::asm::assemble("loop: j loop").unwrap();
        machine.load_program(0x8000_0000, program.bytes());
        machine.hart_mut().set_pc(0x8000_0000);
        assert!(matches!(
            machine.run(100),
            Err(SimError::StepLimitExceeded { limit: 100 })
        ));
    }

    #[test]
    fn planned_fault_lands_at_the_scheduled_instret() {
        let mut machine = Machine::new(MachineConfig::default());
        let program = regvault_isa::asm::assemble(
            "loop: addi a0, a0, 1
                   j loop",
        )
        .unwrap();
        machine.load_program(0x8000_0000, program.bytes());
        machine.hart_mut().set_pc(0x8000_0000);
        machine.memory_mut().write_u64(0x9000, 0xFF00).unwrap();
        machine.set_fault_plan(crate::fault::FaultPlan::new().at(
            10,
            FaultKind::MemBitFlip {
                addr: 0x9000,
                bit: 0,
            },
        ));
        let _ = machine.run(50);
        let log = machine.fault_plan().unwrap().applied();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].effect, FaultEffect::Injected);
        assert!(log[0].instret >= 10);
        assert_eq!(machine.memory().read_u64(0x9000).unwrap(), 0xFF01);
    }

    #[test]
    fn inject_fault_records_skips() {
        let mut machine = Machine::new(MachineConfig::default());
        let effect = machine.inject_fault(FaultKind::MemBitFlip { addr: 0x10, bit: 0 });
        assert_eq!(effect, FaultEffect::SkippedUnmapped);
        let effect = machine.inject_fault(FaultKind::ClbPoison { xor: 1 });
        assert_eq!(effect, FaultEffect::SkippedNoTarget);
        assert_eq!(machine.fault_plan().unwrap().applied().len(), 2);
    }

    #[test]
    fn watchdog_turns_runaway_guest_into_timeout() {
        let mut machine = Machine::new(MachineConfig::default());
        let program = regvault_isa::asm::assemble("loop: j loop").unwrap();
        machine.load_program(0x8000_0000, program.bytes());
        machine.hart_mut().set_pc(0x8000_0000);
        machine.arm_watchdog(25);
        assert!(matches!(
            machine.run(1_000_000),
            Err(SimError::Timeout { budget: 25 })
        ));
        machine.disarm_watchdog();
        assert!(matches!(
            machine.run(100),
            Err(SimError::StepLimitExceeded { limit: 100 })
        ));
    }

    #[test]
    fn kernel_charges_consume_the_watchdog() {
        let mut machine = Machine::new(MachineConfig::default());
        machine.arm_watchdog(10);
        machine.charge(InsnClass::Alu, 10);
        assert!(machine.watchdog().unwrap().expired());
        assert!(matches!(machine.step(), Err(SimError::Timeout { .. })));
    }

    /// A machine with a word at 0x9000 and bit flips of it planned at
    /// instret 10 (inside trap entry's 35 ALU ops) and 40 (inside its 31
    /// stores), recording.
    fn planned_flips() -> Machine {
        let mut machine = Machine::new(MachineConfig::default());
        machine.memory_mut().write_u64(0x9000, 0xF0).unwrap();
        machine.set_fault_plan(
            FaultPlan::new()
                .at(
                    10,
                    FaultKind::MemBitFlip {
                        addr: 0x9000,
                        bit: 0,
                    },
                )
                .at(
                    40,
                    FaultKind::MemBitFlip {
                        addr: 0x9000,
                        bit: 1,
                    },
                ),
        );
        machine.start_recording();
        machine
    }

    #[test]
    fn modelled_rows_land_faults_like_per_class_charges() {
        let mut per_class = planned_flips();
        per_class.charge(InsnClass::Alu, 35);
        per_class.charge(InsnClass::Store, 31);
        let mut modelled = planned_flips();
        modelled.charge_modelled(ModelledPath::TrapEntry, 1);

        let applied = modelled.fault_plan().unwrap().applied();
        assert_eq!(
            applied.iter().map(|f| f.instret).collect::<Vec<_>>(),
            [35, 66],
            "each fault lands at the end of the class it falls in"
        );
        assert_eq!(applied, per_class.fault_plan().unwrap().applied());
        assert_eq!(modelled.recording(), per_class.recording());
        assert_eq!(modelled.memory().read_u64(0x9000).unwrap(), 0xF3);
        assert_eq!(modelled.stats(), per_class.stats());
    }

    #[test]
    fn reset_stats_clears_counters_but_not_state() {
        let mut machine = Machine::new(MachineConfig::default());
        machine.write_key_register(KeyReg::A, 1, 2).unwrap();
        let _ = machine.kernel_encrypt(KeyReg::A, 0, 1, ByteRange::FULL);
        machine.memory_mut().write_u64(0x100, 7).unwrap();
        machine.reset_stats();
        assert_eq!(machine.stats().cycles, 0);
        assert_eq!(machine.memory().read_u64(0x100).unwrap(), 7);
    }
}
