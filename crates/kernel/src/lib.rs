//! A miniature operating-system kernel protected by RegVault.
//!
//! The RegVault paper applies its hardware/compiler machinery to Linux
//! v5.8.18, protecting six classes of sensitive kernel data (Table 2):
//!
//! | data | tweak | mechanism |
//! |---|---|---|
//! | return addresses | stack pointer | per-thread key, prologue/epilogue |
//! | function pointers | storage address | dedicated key, load/store instrumentation |
//! | kernel keys | storage address | manual instrumentation of the crypto subsystem |
//! | `cred` (uid/gid) | storage address | `__rand_integrity` annotation |
//! | `selinux_state` | storage address | `__rand_integrity` annotation |
//! | PGD pointers | storage address | `pgd_t` annotation |
//!
//! This crate rebuilds the protected substrate as a miniature kernel whose
//! state lives entirely in the simulated machine's guest memory — so the
//! paper's attacker (arbitrary kernel-memory read/write, §2.1) is exactly
//! reproducible — while its control logic runs in Rust, charging simulated
//! cycles and executing every cryptographic operation on the real
//! [`regvault_sim`] crypto-engine (so overhead and CLB behaviour are
//! measured, not estimated).
//!
//! Subsystems:
//!
//! * [`thread`] — threads, per-thread wrapped keys, context switches;
//! * [`trap`] — chain-based interrupt context protection (CIP, §2.4.3);
//! * [`cred`] — user credentials with integrity randomization (§3.2.2);
//! * [`selinux`] — the `selinux_state` security switches (§3.2.3);
//! * [`keyring`] + [`aes`] — kernel keys kept encrypted in memory and an
//!   AES-128 engine that unwraps them only into registers (§3.2.1);
//! * [`pgd`] — page-table directory pointers randomized by address
//!   (§3.2.4);
//! * [`fs`] — a small in-memory VFS with function-pointer dispatch tables
//!   (the function-pointer protection target, §3.1.2) and pipes;
//! * [`syscall`] — the syscall layer used by the benchmark workloads.
//!
//! # Examples
//!
//! Boot a fully protected kernel and exercise a syscall:
//!
//! ```
//! use regvault_kernel::{Kernel, KernelConfig, ProtectionConfig};
//!
//! # fn main() -> Result<(), regvault_kernel::KernelError> {
//! let mut kernel = Kernel::boot(KernelConfig {
//!     protection: ProtectionConfig::full(),
//!     ..KernelConfig::default()
//! })?;
//! let uid = kernel.sys_getuid()?;
//! assert_eq!(uid, 1000, "init thread runs as uid 1000");
//! kernel.sys_setuid(0).expect_err("non-root cannot setuid");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
mod config;
pub mod cred;
mod error;
pub mod fs;
mod kernel;
pub mod keyring;
pub mod layout;
mod pfield;
pub mod pgd;
mod rotate;
pub mod selinux;
pub mod signal;
pub mod syscall;
pub mod thread;
pub mod trap;

pub use config::{KernelConfig, ProtectionConfig};
pub use error::KernelError;
pub use kernel::{FailOver, Kernel, KernelImage, RecoveryStats};
pub use rotate::RotationReport;
pub use syscall::Sysno;
