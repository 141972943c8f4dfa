//! Benchmark workloads reproducing the RegVault evaluation (§4.4).
//!
//! Three suites mirror the paper's Figure 5:
//!
//! * [`unixbench`] — UnixBench-shaped micro workloads (Figure 5a):
//!   syscall-oriented loops plus one register-compute item;
//! * [`lmbench`] — LMbench-shaped latency probes (Figure 5b): `lat_syscall
//!   null/read/write/stat/open`, pipes, context switches, process
//!   creation, mmap;
//! * [`spec`] — SPEC CPU2017 intspeed-shaped compute programs
//!   (Figure 5c), built with the `regvault-compiler` and running almost
//!   entirely in user mode.
//!
//! Every workload is a *guest program*: user-mode RISC-V code running on
//! the simulator, trapping into the RegVault-protected kernel for its
//! syscalls, preempted by a cycle timer (which exercises the chain-based
//! interrupt context protection). Overheads are computed from total
//! simulated cycles, exactly as the paper computes them from wall-clock
//! runs.
//!
//! # Examples
//!
//! ```
//! use regvault_kernel::ProtectionConfig;
//! use regvault_workloads::{measure, unixbench::UnixBench};
//!
//! let base = measure(&UnixBench::Syscall, ProtectionConfig::off(), 8).unwrap();
//! let full = measure(&UnixBench::Syscall, ProtectionConfig::full(), 8).unwrap();
//! assert!(full.cycles > base.cycles, "protection costs cycles");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lmbench;
pub mod spec;
pub mod unixbench;

use regvault_kernel::{Kernel, KernelConfig, KernelError, ProtectionConfig};
use regvault_sim::{ClbStats, FaultPlan, MachineConfig};

/// Timer period used for every benchmark run (cycles); scaled so that a
/// workload sees a realistic handful of preemptions.
pub const TIMER_INTERVAL: u64 = 150_000;

/// Simulated-instruction budget per workload run.
pub const STEP_BUDGET: u64 = 400_000_000;

/// A runnable benchmark workload.
pub trait Workload {
    /// Display name (matches the paper's figure labels where applicable).
    fn name(&self) -> &'static str;

    /// The guest program image and its entry offset.
    fn program(&self) -> (Vec<u8>, u64);

    /// Expected `a0` at exit, when the workload self-checks.
    fn expected(&self) -> Option<u64> {
        None
    }
}

/// Measurements from one workload run.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Workload name.
    pub name: &'static str,
    /// Protection configuration label.
    pub config: &'static str,
    /// Total simulated cycles (the figure-of-merit).
    pub cycles: u64,
    /// Retired instructions.
    pub instret: u64,
    /// `cre` + `crd` operations executed.
    pub crypto_ops: u64,
    /// CLB statistics for the run.
    pub clb: ClbStats,
    /// The workload's result value.
    pub result: u64,
}

/// Runs `workload` under `protection` with a `clb_entries`-entry CLB and
/// returns the measurement.
///
/// # Errors
///
/// As [`measure_with`].
pub fn measure(
    workload: &dyn Workload,
    protection: ProtectionConfig,
    clb_entries: usize,
) -> Result<Measurement, KernelError> {
    measure_with(
        workload,
        protection,
        MachineConfig {
            clb_entries,
            ..MachineConfig::default()
        },
    )
}

/// Runs `workload` under `protection` on a machine built from `machine`
/// (the benchmark timer is always armed) and returns the measurement.
///
/// # Errors
///
/// Propagates kernel errors (a correctly configured benchmark never trips
/// integrity checks) and reports result mismatches as
/// [`KernelError::InvalidArgument`].
pub fn measure_with(
    workload: &dyn Workload,
    protection: ProtectionConfig,
    machine: MachineConfig,
) -> Result<Measurement, KernelError> {
    measure_armed(workload, protection, machine, None)
}

/// As [`measure_with`], with `plan` (if any) installed for the user run;
/// its instrets count from the start of that run (statistics are reset
/// after boot). A plan whose faults all lie beyond the run times what
/// merely having it armed costs the host.
///
/// # Errors
///
/// As [`measure_with`].
pub fn measure_armed(
    workload: &dyn Workload,
    protection: ProtectionConfig,
    machine: MachineConfig,
    plan: Option<FaultPlan>,
) -> Result<Measurement, KernelError> {
    let mut kernel = Kernel::boot(KernelConfig {
        protection,
        machine,
        timer_interval: Some(TIMER_INTERVAL),
    })?;
    let (image, entry) = workload.program();
    kernel.machine_mut().reset_stats();
    if let Some(plan) = plan {
        kernel.machine_mut().set_fault_plan(plan);
    }
    let result = kernel.run_user(&image, entry, STEP_BUDGET)?;
    if let Some(expected) = workload.expected() {
        if result != expected {
            return Err(KernelError::InvalidArgument);
        }
    }
    let stats = kernel.machine().stats();
    Ok(Measurement {
        name: workload.name(),
        config: protection.label(),
        cycles: stats.cycles,
        instret: stats.instret,
        crypto_ops: stats.encrypts + stats.decrypts,
        clb: kernel.machine().engine().clb().stats(),
        result,
    })
}

/// The paper's four protected configurations (Figure 5 series), in order.
#[must_use]
pub fn protected_configs() -> [ProtectionConfig; 4] {
    [
        ProtectionConfig::ra_only(),
        ProtectionConfig::fp_only(),
        ProtectionConfig::non_control(),
        ProtectionConfig::full(),
    ]
}

/// One row of a Figure 5 style table: per-config overhead versus baseline.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Workload name.
    pub name: &'static str,
    /// Baseline cycles.
    pub base_cycles: u64,
    /// `(config label, overhead fraction)` per protected configuration.
    pub overheads: Vec<(&'static str, f64)>,
}

/// Sweeps one workload across baseline + the four protected configs.
///
/// # Errors
///
/// Propagates measurement failures.
pub fn sweep(workload: &dyn Workload, clb_entries: usize) -> Result<OverheadRow, KernelError> {
    let base = measure(workload, ProtectionConfig::off(), clb_entries)?;
    let mut overheads = Vec::new();
    for config in protected_configs() {
        let run = measure(workload, config, clb_entries)?;
        let overhead = run.cycles as f64 / base.cycles as f64 - 1.0;
        overheads.push((config.label(), overhead));
    }
    Ok(OverheadRow {
        name: workload.name(),
        base_cycles: base.cycles,
        overheads,
    })
}

/// Geometric-mean overhead across rows for one configuration column.
#[must_use]
pub fn mean_overhead(rows: &[OverheadRow], config: &str) -> f64 {
    let mut product = 1.0f64;
    let mut count = 0u32;
    for row in rows {
        for (label, overhead) in &row.overheads {
            if *label == config {
                product *= 1.0 + overhead;
                count += 1;
            }
        }
    }
    if count == 0 {
        0.0
    } else {
        product.powf(1.0 / f64::from(count)) - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_overhead_of_identity_is_zero() {
        let rows = vec![OverheadRow {
            name: "x",
            base_cycles: 100,
            overheads: vec![("FULL", 0.0)],
        }];
        assert!(mean_overhead(&rows, "FULL").abs() < 1e-12);
        assert_eq!(mean_overhead(&rows, "RA"), 0.0);
    }

    #[test]
    fn mean_overhead_averages_geometrically() {
        let rows = vec![
            OverheadRow {
                name: "a",
                base_cycles: 100,
                overheads: vec![("FULL", 0.10)],
            },
            OverheadRow {
                name: "b",
                base_cycles: 100,
                overheads: vec![("FULL", 0.0)],
            },
        ];
        let mean = mean_overhead(&rows, "FULL");
        assert!(mean > 0.0 && mean < 0.10);
    }
}
