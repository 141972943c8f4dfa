//! Structured execution tracing.
//!
//! Every interesting hardware event — instruction retirement, CLB traffic,
//! QARMA computations, CIP chain saves/restores, trap entry/exit, fault
//! injection, context switches — can be captured as a typed [`TraceEvent`],
//! stamped with the cycle/instret clock, and delivered to a [`Tracer`]
//! sink installed on the machine.
//!
//! Tracing is off by default and *zero-cost when off*: the machine stores
//! `Option<Box<dyn Tracer>>`, every emission site first checks the option,
//! and the event value is only constructed inside the taken branch — the
//! off path is a single predictable-not-taken branch per site (DESIGN.md
//! §11; the repository benchmark's `bench.trace_overhead_pct` prices the
//! on path).
//!
//! One sink ships with the simulator: [`RingTracer`], a bounded ring
//! buffer of the most recent records, the default behind
//! [`crate::Machine::enable_trace`].
//!
//! Embedders can implement [`Tracer`] for their own sinks (the CLI's
//! per-function profiler does exactly that) and install them with
//! [`crate::Machine::install_tracer`].

use std::any::Any;

use regvault_isa::Insn;

use crate::error::ExceptionCause;
use crate::fault::{FaultEffect, FaultKind};

/// Why control entered (or left) the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrapCause {
    /// A syscall (`ecall`) with this number.
    Syscall(u64),
    /// The cycle timer fired.
    Timer,
    /// An architectural exception.
    Exception(ExceptionCause),
}

impl TrapCause {
    /// Short label for rendering and export.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            TrapCause::Syscall(_) => "syscall",
            TrapCause::Timer => "timer",
            TrapCause::Exception(_) => "exception",
        }
    }
}

/// One structured machine event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// An instruction retired (fetched, decoded and executed).
    InsnRetire {
        /// Program counter of the instruction.
        pc: u64,
        /// The decoded instruction.
        insn: Insn,
    },
    /// A CLB lookup was served from the buffer.
    ClbHit {
        /// Key selector of the lookup.
        ksel: u8,
        /// `true` for the decrypt direction.
        decrypt: bool,
    },
    /// A CLB lookup missed (a QARMA computation follows).
    ClbMiss {
        /// Key selector of the lookup.
        ksel: u8,
        /// `true` for the decrypt direction.
        decrypt: bool,
    },
    /// Inserting the missed computation evicted the LRU entry.
    ClbEvict {
        /// Key selector of the *inserted* entry.
        ksel: u8,
    },
    /// A key-register write invalidated the entries of one selector.
    ClbInvalidate {
        /// The invalidated key selector.
        ksel: u8,
    },
    /// The QARMA core ran one block computation (a CLB miss or a machine
    /// with the buffer disabled).
    QarmaOp {
        /// Key selector used.
        ksel: u8,
        /// The tweak value (an address or a chain predecessor).
        tweak: u64,
        /// `true` for the decrypt direction.
        decrypt: bool,
    },
    /// The kernel began chain-encrypting an interrupt context (CIP save).
    CipOpen {
        /// Interrupt-frame base address.
        frame: u64,
    },
    /// The kernel finished chain-decrypting an interrupt context (CIP
    /// restore, integrity check passed).
    CipClose {
        /// Interrupt-frame base address.
        frame: u64,
    },
    /// Control entered the kernel.
    TrapEnter {
        /// Why.
        cause: TrapCause,
    },
    /// Control is returning to the interrupted context.
    TrapExit {
        /// The cause being completed.
        cause: TrapCause,
    },
    /// A fault-injection primitive fired.
    Fault {
        /// What was injected.
        kind: FaultKind,
        /// What the injection achieved.
        effect: FaultEffect,
    },
    /// The scheduler switched threads.
    ContextSwitch {
        /// Outgoing thread id.
        from: u32,
        /// Incoming thread id.
        to: u32,
    },
    /// A value was stored to memory (guest store or kernel-modelled store).
    ///
    /// This is the memory-bus observation point of the ciphertext
    /// side-channel oracle: an attacker with physical/DMA access sees
    /// exactly these (address, raw word) pairs, ciphertext included.
    MemStore {
        /// Store target address.
        addr: u64,
        /// The raw stored value (truncated to the store width).
        value: u64,
    },
}

impl TraceEvent {
    /// Short event-kind label (stable; used by exporters as the event name).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::InsnRetire { .. } => "insn",
            TraceEvent::ClbHit { .. } => "clb_hit",
            TraceEvent::ClbMiss { .. } => "clb_miss",
            TraceEvent::ClbEvict { .. } => "clb_evict",
            TraceEvent::ClbInvalidate { .. } => "clb_invalidate",
            TraceEvent::QarmaOp { .. } => "qarma",
            TraceEvent::CipOpen { .. } => "cip_open",
            TraceEvent::CipClose { .. } => "cip_close",
            TraceEvent::TrapEnter { .. } => "trap_enter",
            TraceEvent::TrapExit { .. } => "trap_exit",
            TraceEvent::Fault { .. } => "fault",
            TraceEvent::ContextSwitch { .. } => "context_switch",
            TraceEvent::MemStore { .. } => "mem_store",
        }
    }
}

/// A [`TraceEvent`] stamped with the machine clock at emission time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated cycles at emission.
    pub cycle: u64,
    /// Retired instructions at emission.
    pub instret: u64,
    /// The event.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Renders like `cycle 001234  insn 0x80000010: addi a0, a0, 1`.
    #[must_use]
    pub fn render(&self) -> String {
        let detail = match &self.event {
            TraceEvent::InsnRetire { pc, insn } => format!("{pc:#010x}: {insn}"),
            TraceEvent::ClbHit { ksel, decrypt } | TraceEvent::ClbMiss { ksel, decrypt } => {
                format!("ksel={ksel} dir={}", if *decrypt { "crd" } else { "cre" })
            }
            TraceEvent::ClbEvict { ksel } | TraceEvent::ClbInvalidate { ksel } => {
                format!("ksel={ksel}")
            }
            TraceEvent::QarmaOp {
                ksel,
                tweak,
                decrypt,
            } => format!(
                "ksel={ksel} tweak={tweak:#x} dir={}",
                if *decrypt { "crd" } else { "cre" }
            ),
            TraceEvent::CipOpen { frame } | TraceEvent::CipClose { frame } => {
                format!("frame={frame:#x}")
            }
            TraceEvent::TrapEnter { cause } | TraceEvent::TrapExit { cause } => {
                format!("{cause:?}")
            }
            TraceEvent::Fault { kind, effect } => format!("{kind:?} -> {effect:?}"),
            TraceEvent::ContextSwitch { from, to } => format!("{from} -> {to}"),
            TraceEvent::MemStore { addr, value } => {
                format!("addr={addr:#x} value={value:#x}")
            }
        };
        format!(
            "cycle {:06}  {:<14} {detail}",
            self.cycle,
            self.event.kind()
        )
    }
}

/// A sink for stamped trace events.
///
/// The machine owns its tracer as `Box<dyn Tracer>`; implementations must
/// therefore be clonable through [`Tracer::boxed_clone`] (the machine
/// itself is `Clone`) and downcastable through [`Tracer::into_any`] so
/// embedders can recover their concrete sink after a run. Sinks must also
/// be `Send`: forked machines move across worker threads in the fleet, so
/// `Machine: Send` is asserted at compile time and the tracer is the only
/// type-erased field that could break it.
pub trait Tracer: std::fmt::Debug + Send {
    /// Consumes one stamped event.
    fn emit(&mut self, record: TraceRecord);

    /// Clones the sink behind the box.
    fn boxed_clone(&self) -> Box<dyn Tracer>;

    /// Borrows the sink as [`Any`] for in-place downcasting.
    fn as_any(&self) -> &dyn Any;

    /// Converts the boxed sink into [`Any`] for downcasting.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl Clone for Box<dyn Tracer> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

/// Fixed-capacity ring buffer of the most recent trace records.
#[derive(Debug, Clone)]
pub struct RingTracer {
    records: Vec<TraceRecord>,
    capacity: usize,
    next: usize,
    wrapped: bool,
    emitted: u64,
}

impl RingTracer {
    /// Creates a buffer holding the last `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        Self {
            records: Vec::with_capacity(capacity),
            capacity,
            next: 0,
            wrapped: false,
            emitted: 0,
        }
    }

    /// The retained records, oldest first.
    #[must_use]
    pub fn records(&self) -> Vec<&TraceRecord> {
        if self.wrapped {
            self.records[self.next..]
                .iter()
                .chain(self.records[..self.next].iter())
                .collect()
        } else {
            self.records.iter().collect()
        }
    }

    /// Number of records currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total events emitted into this tracer (including overwritten ones).
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// `true` when old records have been overwritten.
    #[must_use]
    pub fn dropped_any(&self) -> bool {
        self.wrapped
    }
}

impl Tracer for RingTracer {
    fn emit(&mut self, record: TraceRecord) {
        self.emitted += 1;
        if self.records.len() < self.capacity {
            self.records.push(record);
        } else {
            self.records[self.next] = record;
            self.wrapped = true;
        }
        self.next = (self.next + 1) % self.capacity;
    }

    fn boxed_clone(&self) -> Box<dyn Tracer> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regvault_isa::{AluOp, Reg};

    fn record(pc: u64) -> TraceRecord {
        TraceRecord {
            cycle: pc,
            instret: pc / 4,
            event: TraceEvent::InsnRetire {
                pc,
                insn: Insn::OpImm {
                    op: AluOp::Add,
                    rd: Reg::A0,
                    rs1: Reg::A0,
                    imm: 1,
                },
            },
        }
    }

    #[test]
    fn ring_keeps_the_last_n_in_order() {
        let mut ring = RingTracer::new(3);
        for pc in 0..5 {
            ring.emit(record(pc * 4));
        }
        let cycles: Vec<u64> = ring.records().iter().map(|r| r.cycle).collect();
        assert_eq!(cycles, vec![8, 12, 16]);
        assert_eq!(ring.emitted(), 5);
        assert!(ring.dropped_any());
    }

    #[test]
    fn ring_under_capacity_keeps_everything() {
        let mut ring = RingTracer::new(10);
        ring.emit(record(0));
        ring.emit(record(4));
        assert_eq!(ring.len(), 2);
        assert!(!ring.dropped_any());
        let cycles: Vec<u64> = ring.records().iter().map(|r| r.cycle).collect();
        assert_eq!(cycles, vec![0, 4]);
    }

    #[test]
    fn render_is_informative() {
        let text = record(0x8000_0000).render();
        assert!(text.contains("0x80000000"), "{text}");
        assert!(text.contains("addi a0, a0, 1"), "{text}");

        let qarma = TraceRecord {
            cycle: 7,
            instret: 3,
            event: TraceEvent::QarmaOp {
                ksel: 2,
                tweak: 0x9000,
                decrypt: true,
            },
        };
        let text = qarma.render();
        assert!(text.contains("qarma"), "{text}");
        assert!(text.contains("ksel=2"), "{text}");
        assert!(text.contains("0x9000"), "{text}");
    }

    #[test]
    fn boxed_tracers_clone_and_downcast() {
        let mut boxed: Box<dyn Tracer> = Box::new(RingTracer::new(4));
        boxed.emit(record(0));
        let cloned = boxed.clone();
        let ring = cloned
            .into_any()
            .downcast::<RingTracer>()
            .expect("concrete type survives the box");
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn event_kinds_are_stable_labels() {
        let e = TraceEvent::ClbHit {
            ksel: 1,
            decrypt: false,
        };
        assert_eq!(e.kind(), "clb_hit");
        assert_eq!(TrapCause::Syscall(3).label(), "syscall");
        assert_eq!(TrapCause::Timer.label(), "timer");
    }
}
