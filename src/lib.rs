//! RegVault — hardware-assisted selective data randomization for OS
//! kernels (reproduction of the DAC '22 paper).
//!
//! This crate is the front door of the reproduction. It re-exports the
//! whole stack; the repository README has the experiment index:
//!
//! * [`qarma`] — the QARMA-64 tweakable block cipher;
//! * [`isa`] — RV64IM + the `cre`/`crd` extension, assembler;
//! * [`sim`] — the machine simulator: crypto-engine, key registers,
//!   cryptographic lookaside buffer, cycle accounting, and the structural
//!   FPGA area model behind Table 3 ([`sim::hwcost`]);
//! * [`compiler`] — annotation-driven instrumentation, sensitive register
//!   spill protection, RV64 codegen;
//! * [`kernel`] — the miniature protected kernel (six sensitive data
//!   classes of Table 2);
//! * [`server`] — the supervised multi-tenant server and snapshot fleet;
//! * [`attacks`] — the Table 4 penetration suite;
//! * [`workloads`] — the Figure 5 benchmark suites.
//!
//! # Examples
//!
//! ```
//! use regvault::prelude::*;
//!
//! let cipher = Qarma64::new(Key::new(0x84be85ce9804e94b, 0xec2802d4e0a488e9));
//! let ct = cipher.encrypt(0xfb623599da6e8127, 0x477d469dec0b8762);
//! assert_eq!(cipher.decrypt(ct, 0x477d469dec0b8762), 0xfb623599da6e8127);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use regvault_attacks as attacks;
pub use regvault_compiler as compiler;
pub use regvault_isa as isa;
pub use regvault_kernel as kernel;
pub use regvault_qarma as qarma;
pub use regvault_server as server;
pub use regvault_sim as sim;
pub use regvault_workloads as workloads;

/// One-stop imports for examples and tests.
///
/// # Examples
///
/// Run an attack and check the hardware budget:
///
/// ```
/// use regvault::prelude::*;
///
/// // The paper's headline security result, in three lines:
/// let result = run_attack(Attack::PrivilegeEscalation, ProtectionConfig::full());
/// assert!(result.outcome.defeated());
///
/// // And the hardware budget (Table 3): the crypto-engine stays under 5%.
/// let report = hwcost::soc_report(8);
/// assert!(report.crypto_engine_lut_pct() < 5.0);
/// ```
pub mod prelude {
    pub use regvault_attacks::{run_all, run_attack, Attack, AttackResult, Outcome};
    pub use regvault_compiler::prelude::*;
    pub use regvault_isa::{asm, ByteRange, Insn, KeyReg, Reg};
    pub use regvault_kernel::{Kernel, KernelConfig, KernelError, ProtectionConfig, Sysno};
    pub use regvault_qarma::{Key, Qarma64, Sbox};
    pub use regvault_sim::{
        hwcost, Clb, ClbStats, CostModel, CryptoEngine, Event, Machine, MachineConfig, RingTracer,
        Stats, TraceEvent, TraceRecord, Tracer, TrapCause,
    };
    pub use regvault_workloads::{
        lmbench::Lmbench, measure, spec::Spec, sweep, unixbench::UnixBench, Measurement,
        OverheadRow, Workload,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn the_whole_stack_is_reachable_from_the_prelude() {
        let cipher = Qarma64::new(Key::new(1, 2));
        let ct = cipher.encrypt(3, 4);
        assert_eq!(cipher.decrypt(ct, 4), 3);
        let report = hwcost::soc_report(0);
        assert!(report.soc_luts > 0);
    }
}
