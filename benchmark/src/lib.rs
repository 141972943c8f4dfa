//! Repository benchmark for the RegVault reproduction.
//!
//! Five workloads each run in one process on one thread: a round at a
//! time, from a seed, for a time budget. An untraced run reports the
//! end-to-end metrics; a traced run times spans around the public calls
//! the benchmark makes into each layer, reads the public counters after
//! each call, and reports a per-layer ledger. Every round's outputs are
//! checked. See `README.md` for the workloads, metrics and commands.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ledger;
pub mod probes;
pub mod run;
pub mod spans;
pub mod workload;

/// Median of `values` (sorts them in place); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated `q`-quantile of `values` (sorts them in place); 0
/// when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&mut [1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
    }
}
