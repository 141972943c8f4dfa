//! Deterministic counters a round produces, and the guest-vs-modelled
//! split of retired instructions.

use std::collections::BTreeMap;

use regvault_bench::json::Value;
use regvault_metrics::HistogramData;
use regvault_sim::Stats;

/// Retired instructions split by who produced them, derived only from the
/// public [`Stats`].
///
/// `guest_insns` are instructions the simulator fetched and executed: every
/// decode-cache hit (the superblock tier books its instructions as hits)
/// plus every decode miss. `modelled_insns` are the rest of `instret`: work
/// the Rust-modelled kernel charged in bulk through `Machine::charge` and
/// the kernel-mode load/store/crypto helpers. An instruction that faults
/// after decode is counted as guest work but never retires, so the
/// difference saturates at zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Split {
    /// All retired instructions.
    pub instret: u64,
    /// Interpreted guest instructions.
    pub guest_insns: u64,
    /// Instructions charged by the modelled kernel.
    pub modelled_insns: u64,
}

impl Split {
    /// Splits one machine's statistics.
    #[must_use]
    pub fn of(stats: &Stats) -> Self {
        let guest_insns = stats.decode_hits + stats.decode_misses;
        Self {
            instret: stats.instret,
            guest_insns,
            modelled_insns: stats.instret.saturating_sub(guest_insns),
        }
    }

    /// Share of `instret` charged by the modelled kernel, in `[0, 1]`.
    #[must_use]
    pub fn modelled_share(&self) -> f64 {
        ratio(self.modelled_insns, self.instret)
    }
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Named counters, histograms and raw samples summed over rounds.
/// Everything in a tally is a function of the workload and its seed alone,
/// so two runs of one seed (traced or not) must produce equal tallies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    counts: BTreeMap<String, u64>,
    hists: BTreeMap<&'static str, HistogramData>,
    samples: BTreeMap<&'static str, Vec<u64>>,
}

impl Tally {
    /// Adds `value` to counter `key`.
    pub fn add(&mut self, key: &str, value: u64) {
        *self.counts.entry(key.to_owned()).or_default() += value;
    }

    /// Counter `key`, 0 when never added.
    #[must_use]
    pub fn get(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// `get(num) / get(den)`, 0 when the denominator is 0.
    #[must_use]
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        ratio(self.get(num), self.get(den))
    }

    /// Records one observation into histogram `name` and keeps the raw
    /// sample.
    pub fn record(&mut self, name: &'static str, value: u64) {
        self.hists.entry(name).or_default().record(value);
        self.samples.entry(name).or_default().push(value);
    }

    /// Folds a whole histogram into histogram `name`.
    pub fn merge_hist(&mut self, name: &'static str, data: &HistogramData) {
        self.hists.entry(name).or_default().merge(data);
    }

    /// Histogram `name` (empty when never recorded).
    #[must_use]
    pub fn hist(&self, name: &str) -> HistogramData {
        self.hists.get(name).cloned().unwrap_or_default()
    }

    /// The `q`-quantile of `name`: exact (nearest rank) when the raw
    /// samples were recorded, else the log2-bucket estimate of a histogram
    /// merged from the program's own report. 0 when empty.
    #[must_use]
    pub fn quantile(&self, name: &str, q: f64) -> u64 {
        match self.samples.get(name) {
            Some(samples) if !samples.is_empty() => {
                let mut sorted = samples.clone();
                sorted.sort_unstable();
                let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
                sorted[rank.clamp(1, sorted.len()) - 1]
            }
            _ => self.hist(name).quantile(q).unwrap_or(0),
        }
    }

    /// Adds every counter, histogram and sample of `other` into `self`.
    pub fn merge(&mut self, other: &Tally) {
        for (key, value) in &other.counts {
            self.add(key, *value);
        }
        for (name, data) in &other.hists {
            self.merge_hist(name, data);
        }
        for (name, samples) in &other.samples {
            self.samples.entry(name).or_default().extend(samples);
        }
    }

    /// A copy without the counters `keys`.
    #[must_use]
    pub fn without(&self, keys: &[&str]) -> Tally {
        let mut out = self.clone();
        out.counts.retain(|key, _| !keys.contains(&key.as_str()));
        out
    }

    /// Counters whose key starts with `prefix`, in key order.
    pub fn with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = (&'a str, u64)> {
        self.counts
            .range(prefix.to_owned()..)
            .take_while(move |(key, _)| key.starts_with(prefix))
            .map(|(key, value)| (key.as_str(), *value))
    }

    /// Every counter, and each histogram's count, sum, extremes and
    /// quantiles, as an ordered JSON object.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let counts = self
            .counts
            .iter()
            .map(|(key, value)| (key.clone(), Value::Int(*value)))
            .collect();
        let hists = self
            .hists
            .iter()
            .map(|(name, data)| {
                let q = |p: f64| Value::Int(self.quantile(name, p));
                let summary = vec![
                    ("count".to_owned(), Value::Int(data.count())),
                    ("sum".to_owned(), Value::Int(data.sum())),
                    ("min".to_owned(), Value::Int(data.min().unwrap_or(0))),
                    ("p50".to_owned(), q(0.5)),
                    ("p90".to_owned(), q(0.9)),
                    ("p99".to_owned(), q(0.99)),
                    ("max".to_owned(), Value::Int(data.max().unwrap_or(0))),
                ];
                ((*name).to_owned(), Value::Obj(summary))
            })
            .collect();
        Value::Obj(vec![
            ("counts".to_owned(), Value::Obj(counts)),
            ("histograms".to_owned(), Value::Obj(hists)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regvault_isa::asm;
    use regvault_kernel::Kernel;
    use regvault_sim::{Machine, MachineConfig};
    use regvault_workloads::{lmbench::Lmbench, Workload, STEP_BUDGET};

    use crate::spans::Spans;
    use crate::workload::{kernel_config, prepare, run_round, Kind};

    fn split_under_kernel(workload: &dyn Workload) -> Split {
        let mut kernel = Kernel::boot(kernel_config("full", 7)).expect("kernel boots");
        kernel.machine_mut().reset_stats();
        let (image, entry) = workload.program();
        let a0 = kernel
            .run_user(&image, entry, STEP_BUDGET)
            .expect("guest runs");
        assert_eq!(Some(a0), workload.expected());
        Split::of(kernel.machine().stats())
    }

    #[test]
    fn a_bare_machine_has_no_modelled_work() {
        let mut machine = Machine::new(MachineConfig::default());
        let program = asm::assemble(
            "li   a0, 0
             li   t0, 10000
            loop:
             addi a0, a0, 1
             xori a1, a0, 5
             add  a2, a2, a1
             blt  a0, t0, loop
             ebreak",
        )
        .expect("assembles");
        machine.load_program(0x8000_0000, program.bytes());
        machine.hart_mut().set_pc(0x8000_0000);
        machine.run_until_break(100_000).expect("halts");
        assert!(
            machine.superblock_stats().insns > 0,
            "the tier ran the loop"
        );
        let split = Split::of(machine.stats());
        assert_eq!(split.guest_insns, split.instret);
        assert_eq!(split.modelled_insns, 0);
        assert_eq!(split.modelled_share(), 0.0);
    }

    #[test]
    fn lat_syscall_null_is_almost_all_modelled_kernel_work() {
        let split = split_under_kernel(&Lmbench::Null);
        assert!(split.guest_insns > 0);
        assert!(split.modelled_share() > 0.95, "{split:?}");
    }

    #[test]
    fn spec_is_almost_all_interpreted_guest_code() {
        let (inputs, _) = prepare(Kind::SpecUser);
        let round = run_round(&inputs, 7, true, &mut Spans::new(false)).tally;
        assert_eq!(round.get("check_failures"), 0);
        let share = round.ratio("modelled_insns", "instret");
        assert!(share < 0.02, "SPEC modelled share {share}");
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let mut a = Tally::default();
        a.add("x", 2);
        a.record("lat", 10);
        let mut b = Tally::default();
        b.add("x", 3);
        b.add("y", 1);
        b.record("lat", 30);
        a.merge(&b);
        assert_eq!(a.get("x"), 5);
        assert_eq!(a.get("y"), 1);
        assert_eq!(a.get("missing"), 0);
        assert_eq!(a.hist("lat").count(), 2);
        assert_eq!(a.quantile("lat", 0.5), 10);
        assert_eq!(a.quantile("lat", 0.99), 30);
        assert_eq!(a.quantile("missing", 0.5), 0);
        assert_eq!(a.without(&["x"]).get("x"), 0);
    }

    #[test]
    fn prefix_scan_stops_at_the_prefix() {
        let mut t = Tally::default();
        t.add("cycles.a.off", 1);
        t.add("cycles.b.off", 2);
        t.add("cyclesz", 3);
        t.add("ops", 4);
        let keys: Vec<&str> = t.with_prefix("cycles.").map(|(k, _)| k).collect();
        assert_eq!(keys, ["cycles.a.off", "cycles.b.off"]);
    }
}
