//! Log2 histograms and the exported metrics view.
//!
//! The simulator and the kernel count into plain fields of
//! `regvault_sim::Stats`, which snapshots carry, so every count follows the
//! machine through fork, restore and `reset_stats`. This crate holds the
//! two value types around those counts: [`HistogramData`], the log2
//! distribution behind the syscall-latency and timeslice histograms (and
//! the serving layer's latency histograms), and [`Metrics`], the named,
//! ordered export that `regvault_sim::Machine::metrics` builds on demand.
//! It sits at the bottom of the dependency graph (it depends on nothing).
//!
//! # Examples
//!
//! ```
//! use regvault_metrics::{HistogramData, Metrics};
//!
//! let mut latency = HistogramData::default();
//! latency.record(180);
//! latency.record(220);
//! let metrics = Metrics {
//!     counters: vec![("clb_hits", 3)],
//!     histograms: vec![("syscall_cycles", latency)],
//! };
//! assert_eq!(metrics.get("clb_hits"), Some(3));
//! assert_eq!(metrics.get("missing"), None);
//! assert_eq!(metrics.histograms[0].1.count(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Number of histogram buckets: one for zero plus one per power of two up
/// to `2^63`.
pub const BUCKETS: usize = 65;

/// A distribution of `u64` observations.
///
/// Values are bucketed by order of magnitude (`bucket 0` holds zeros,
/// `bucket k` holds values in `[2^(k-1), 2^k)`), which is exact enough for
/// latency-shaped data while keeping `observe` branch-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramData {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Default for HistogramData {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }
}

/// Bucket index for `value`: 0 for zero, `floor(log2(value)) + 1` otherwise.
#[must_use]
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

impl HistogramData {
    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_index(value)] += 1;
    }

    /// Rebuilds a histogram from the parts its accessors report (snapshot
    /// decoding); the observation count is the bucket total. `min` and
    /// `max` of an empty histogram are `u64::MAX` and 0. Returns `None`
    /// when no sequence of [`HistogramData::record`] calls yields these
    /// parts' count/extrema relation.
    #[must_use]
    pub fn from_parts(sum: u64, min: u64, max: u64, buckets: [u64; BUCKETS]) -> Option<Self> {
        let count = buckets
            .iter()
            .try_fold(0u64, |total, &n| total.checked_add(n))?;
        let parts = Self {
            count,
            sum,
            min,
            max,
            buckets,
        };
        let consistent = if count == 0 {
            parts == Self::default()
        } else {
            min <= max && buckets[bucket_index(min)] > 0 && buckets[bucket_index(max)] > 0
        };
        consistent.then_some(parts)
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean observation, or 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest observation, if any.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, if any.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The log2 bucket array (see [`bucket_index`]).
    #[must_use]
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) from the log2 buckets,
    /// or `None` when the histogram is empty.
    ///
    /// The estimate interpolates linearly *within* the bucket holding the
    /// target rank (bucket `k` spans `[2^(k-1), 2^k)`), then clamps to the
    /// recorded `min`/`max` so single-bucket histograms report exact
    /// extrema instead of a bucket midpoint. Error is bounded by the bucket
    /// width — at most a factor of two, which is adequate for the
    /// latency-shaped p50/p99 reporting these histograms feed.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based: ceil(q * count),
        // floored at 1 so q = 0.0 selects the first observation.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let value = if i == 0 {
                    0
                } else {
                    // Position of the target rank inside this bucket,
                    // in (0.0, 1.0].
                    let into = (rank - seen) as f64 / n as f64;
                    let lo = (1u64 << (i - 1)) as f64;
                    (lo + lo * into) as u64
                };
                return Some(value.clamp(self.min, self.max));
            }
            seen += n;
        }
        self.max()
    }

    /// Folds another histogram's observations into this one, as if every
    /// value recorded into `other` had been recorded here. Order-free and
    /// associative, so per-worker histograms merged in any grouping yield
    /// the same result — the fleet bench relies on this to aggregate
    /// per-instance latency distributions deterministically.
    pub fn merge(&mut self, other: &HistogramData) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }

    /// `(lower_bound, count)` for each non-empty bucket, in order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (if i == 0 { 0 } else { 1u64 << (i - 1) }, n))
    }
}

/// A point-in-time export of named counters and histograms, in a fixed
/// order. The simulator builds one on demand from its plain counters
/// (`regvault_sim::Machine::metrics`); nothing counts into it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Every counter, in export order.
    pub counters: Vec<(&'static str, u64)>,
    /// Every histogram, in export order.
    pub histograms: Vec<(&'static str, HistogramData)>,
}

impl Metrics {
    /// Value of the counter named `name`, if exported.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorded(values: &[u64]) -> HistogramData {
        let mut h = HistogramData::default();
        for &v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn export_reads_counters_by_name() {
        let metrics = Metrics {
            counters: vec![("ops", 42), ("zero", 0)],
            histograms: vec![("lat", recorded(&[7]))],
        };
        assert_eq!(metrics.get("ops"), Some(42));
        assert_eq!(metrics.get("zero"), Some(0));
        assert_eq!(metrics.get("missing"), None);
        assert_eq!(metrics.get("lat"), None, "histograms are not counters");
    }

    #[test]
    fn histogram_buckets_by_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);

        let d = recorded(&[0, 1, 2, 3, 1000]);
        assert_eq!(d.count(), 5);
        assert_eq!(d.sum(), 1006);
        assert_eq!(d.min(), Some(0));
        assert_eq!(d.max(), Some(1000));
        let buckets: Vec<(u64, u64)> = d.nonzero_buckets().collect();
        assert_eq!(buckets, vec![(0, 1), (1, 1), (2, 2), (512, 1)]);
    }

    #[test]
    fn quantiles_from_log2_buckets() {
        assert_eq!(HistogramData::default().quantile(0.5), None, "empty");

        // A single value: every quantile is that value (clamped to extrema).
        let d = recorded(&[700]);
        assert_eq!(d.quantile(0.0), Some(700));
        assert_eq!(d.quantile(0.5), Some(700));
        assert_eq!(d.quantile(1.0), Some(700));

        // A spread: quantiles are monotone, bracketed by min/max, and the
        // p50 lands within a factor of two of the true median.
        let d = recorded(&(1..=1000u64).collect::<Vec<_>>());
        let p50 = d.quantile(0.5).unwrap();
        let p90 = d.quantile(0.9).unwrap();
        let p99 = d.quantile(0.99).unwrap();
        assert!(p50 <= p90 && p90 <= p99);
        assert!((250..=1000).contains(&p50), "p50 = {p50}");
        assert!(p99 <= 1000);
        assert_eq!(d.quantile(1.0), Some(1000));
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let all = recorded(&[0, 1, 5, 900, 7]);
        let mut merged = recorded(&[0, 1, 5]);
        merged.merge(&recorded(&[900, 7]));
        assert_eq!(merged, all);

        // Merging an empty histogram is a no-op (min stays untouched).
        merged.merge(&HistogramData::default());
        assert_eq!(merged, all);
        let mut empty = HistogramData::default();
        empty.merge(&all);
        assert_eq!(empty, all);
    }

    #[test]
    fn empty_histogram_has_no_extrema() {
        let d = HistogramData::default();
        assert_eq!(d.min(), None);
        assert_eq!(d.max(), None);
        assert_eq!(d.mean(), 0.0);
    }

    #[test]
    fn reset_to_default_then_record() {
        // `Stats::default()` is how a measurement epoch zeroes its
        // histograms: the reset value must forget every observation,
        // extrema included, and accept new ones.
        let mut h = recorded(&[7, 9000]);
        assert_eq!(h.max(), Some(9000));
        h = HistogramData::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.nonzero_buckets().count(), 0);
        h.record(3);
        assert_eq!(h, recorded(&[3]));
        assert_eq!((h.min(), h.max()), (Some(3), Some(3)));
    }

    #[test]
    fn from_parts_rebuilds_what_the_accessors_report() {
        for h in [HistogramData::default(), recorded(&[0, 3, 3, 4096])] {
            let rebuilt = HistogramData::from_parts(
                h.sum(),
                h.min().unwrap_or(u64::MAX),
                h.max().unwrap_or(0),
                *h.buckets(),
            );
            assert_eq!(rebuilt.as_ref(), Some(&h));
        }
        let mut buckets = [0; BUCKETS];
        assert_eq!(
            HistogramData::from_parts(1, 0, 0, buckets),
            None,
            "sum without observations"
        );
        buckets[bucket_index(5)] = 1;
        assert_eq!(
            HistogramData::from_parts(5, 9, 5, buckets),
            None,
            "min above max"
        );
        assert_eq!(
            HistogramData::from_parts(5, 1, 5, buckets),
            None,
            "min outside any bucket"
        );
    }

    #[test]
    fn clone_is_independent() {
        let h = recorded(&[1]);
        let mut fork = h.clone();
        fork.record(2);
        assert_eq!(h.count(), 1);
        assert_eq!(fork.count(), 2);
    }
}
