//! RegVault machine simulator.
//!
//! This crate is the hardware substrate of the RegVault reproduction: a
//! functional, cycle-accounting simulator for a 64-bit RISC-V core extended
//! with the RegVault primitives of the DAC '22 paper:
//!
//! * the `cre`/`crd` *context-aware cryptographic instructions*, executed by
//!   a QARMA-64 [`CryptoEngine`] (§2.3.2),
//! * eight 128-bit hardware [key registers](KeyRegFile) (master `m` +
//!   general `a`–`g`) with the paper's access rules — user mode sees
//!   nothing, the kernel can only *write* general keys, and nobody reads or
//!   writes the master key (§2.3.1),
//! * the [Cryptographic Lookaside Buffer](Clb): a fully-associative LRU
//!   cache of recent cipher computations, invalidated per key selector on
//!   key updates (§2.3.3).
//!
//! The simulator is *functional + cycle-accounting* rather than RTL-level:
//! every instruction executes architecturally, and a configurable
//! [`CostModel`] charges cycles (QARMA = 3 cycles as measured on the
//! paper's FPGA prototype; CLB hit = 1). The paper's evaluation reports
//! relative overheads, which this model reproduces.
//!
//! The [`hwcost`] module prices the same crypto-engine and CLB in FPGA
//! area (Table 3 of the paper).
//!
//! The [`Machine::run`] loop returns [`Event`]s (syscalls, traps, timer
//! interrupts) to its embedder; the miniature kernel in `regvault-kernel`
//! plays the role of the privileged software handling those events.
//!
//! # Examples
//!
//! Execute Figure 2a of the paper — encrypt a pointer, store it, load it
//! back, decrypt it:
//!
//! ```
//! use regvault_isa::asm;
//! use regvault_sim::{Machine, MachineConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut machine = Machine::new(MachineConfig::default());
//! let program = asm::assemble(
//!     "li   t1, 0x9000     # tweak: the storage address
//!      li   s0, 0x9000
//!      li   a0, 0xdead     # the 'pointer'
//!      creak a0, a0[7:0], t1
//!      sd   a0, 0(s0)
//!      ld   a1, 0(s0)
//!      crdak a1, a1, t1, [7:0]
//!      ebreak",
//! )?;
//! machine.load_program(0x8000_0000, program.bytes());
//! machine.write_key_register(regvault_isa::KeyReg::A, 0x1234, 0x5678)?;
//! machine.hart_mut().set_pc(0x8000_0000);
//! machine.run_until_break(10_000)?;
//! assert_eq!(machine.hart().reg(regvault_isa::Reg::A1), 0xdead);
//! // The in-memory representation was randomized:
//! assert_ne!(machine.memory().read_u64(0x9000)?, 0xdead);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clb;
mod cost;
mod engine;
mod error;
mod exec;
mod fault;
mod fxhash;
mod hart;
pub mod hwcost;
mod icache;
mod lockstep;
mod machine;
mod mem;
mod memo;
mod replay;
mod snapshot;
mod stats;
mod superblock;
pub mod trace;

pub use clb::{Clb, ClbStats};
pub use cost::{CostModel, ModelledPath};
pub use engine::{CryptoEngine, CryptoResult, IntegrityError, KeyRegFile, Watchdog};
pub use error::{ExceptionCause, SimError};
pub use fault::{AppliedFault, FaultEffect, FaultKind, FaultPlan, FaultSpec};
pub use hart::{Hart, Privilege};
pub use lockstep::{arch_divergence, run_lockstep, Divergence, LockstepOutcome};
pub use machine::{Event, Machine, MachineConfig};
pub use mem::{Memory, PAGE_SIZE};
pub use memo::memo_counts;
pub use replay::{shrink_events, EventLog, LoggedEvent, ReproBundle};
pub use snapshot::{Snapshot, SnapshotError};
pub use stats::{InsnClass, SchedEvent, Stats};
pub use superblock::SuperblockStats;
pub use trace::{RingTracer, TraceEvent, TraceRecord, Tracer, TrapCause};
