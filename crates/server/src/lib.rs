//! Supervised multi-tenant server scenario for the RegVault reproduction.
//!
//! The paper's evaluation measures RegVault's overhead on kernel
//! micro/macro-benchmarks; this crate asks the complementary *robustness*
//! question: does a protected kernel keep **serving** while an attacker
//! (or glitch campaign) corrupts its protected data live? It builds a
//! server-class scenario on top of [`regvault_kernel`]:
//!
//! * [`protocol`] — a fixed-size, self-describing request/response frame
//!   format carried over the kernel's pipe IPC;
//! * [`loadgen`] — a seeded open-loop arrival stream (Poisson arrivals in
//!   simulated time), so offered load is independent of service capacity;
//! * [`tenant`] — the per-tenant supervision state machine: bounded-retry
//!   respawns with exponential backoff, circuit breakers with doubling
//!   cooldowns and a terminal quarantine state, and probation on return;
//! * [`supervisor`] — the fail-fast supervisor binding it together: N
//!   tenant threads serve requests while seeded faults land on cred
//!   words, interrupt frames, CLB entries, and key registers; faulted
//!   tenants are quarantined and respawned while healthy tenants keep
//!   serving, and overload is shed explicitly.
//!
//! The headline invariant is the accounting identity
//! ([`ServeReport::accounting_holds`]): every offered request is served,
//! failed, or shed — never silently dropped, no matter what the fault
//! injector does.
//!
//! # Examples
//!
//! ```
//! use regvault_server::{ServeConfig, Supervisor};
//!
//! let report = Supervisor::new(ServeConfig {
//!     requests: 50,
//!     fault_interval: 80_000,
//!     ..ServeConfig::default()
//! })
//! .expect("boot")
//! .run();
//! assert!(report.accounting_holds());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod loadgen;
pub mod protocol;
pub mod supervisor;
pub mod tenant;

pub use fleet::{run_fleet, FleetConfig, FleetHostStats, FleetReport, FleetScenario};
pub use loadgen::{Arrival, LoadGen, LoadGenConfig};
pub use protocol::{OpCode, Request, Response, Status};
pub use supervisor::{ServeConfig, ServeReport, Supervisor, TenantSummary};
pub use tenant::{SupervisionPolicy, Tenant, TenantState};

/// Simulated-cycle penalty of a full reboot from scratch (image load, key
/// programming, warm-up): the supervisor's cold restart and the fleet's
/// cold boot both charge it.
pub(crate) const COLD_RESTART_PENALTY: u64 = 2_000_000;

/// `snapshot` with the last byte of its last page flipped, decoded from a
/// re-checksummed stream. The recorded digest is kept, so the decoded
/// snapshot claims the pristine image's digest: the damage a restore
/// integrity gate has to catch.
#[cfg(test)]
fn damaged_decode(snapshot: &regvault_sim::Snapshot) -> regvault_sim::Snapshot {
    // FNV-1a 64, the snapshot stream checksum (its last 8 bytes).
    let fnv1a = |bytes: &[u8]| {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
    };
    let bytes = snapshot.to_bytes();
    let mut payload = bytes[..bytes.len() - 8].to_vec();
    *payload.last_mut().expect("page bytes") ^= 0x10;
    let checksum = fnv1a(&payload);
    payload.extend_from_slice(&checksum.to_le_bytes());
    let damaged =
        regvault_sim::Snapshot::from_bytes(&payload).expect("re-checksummed image decodes");
    assert_eq!(damaged.digest(), snapshot.digest());
    damaged
}
