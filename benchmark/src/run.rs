//! One benchmark run: setup, timed rounds, checks, and the metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use regvault_bench::json::Value;
use regvault_kernel::Kernel;
use regvault_server::{FleetHostStats, Supervisor};
use regvault_workloads::STEP_BUDGET;

use crate::ledger::{ratio, Tally};
use crate::spans::Spans;
use crate::workload::{self, Inputs, Kind, RoundOut, SetupTimes};
use crate::{median, probes, quantile};

/// Setup repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Seed of the discarded warm-up round.
const WARMUP_SEED: u64 = 0;

/// End-to-end metrics of an untraced run, as `(name, unit)` in the order
/// `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("round_ms_p50", "ms"),
    ("sim_mcycles_per_s", "Mcycle/s"),
    ("served_per_s", "1/s"),
    ("served_frac", "ratio"),
    ("latency_p50_cycles", "cycles"),
    ("latency_p99_cycles", "cycles"),
];

/// Per-layer metrics of a traced run, as `(name, unit)` in the order
/// `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 64] = [
    ("bench.round_ms_p90", "ms"),
    ("bench.residual_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.check_pct", "%"),
    ("qarma.encrypt_ns", "ns"),
    ("qarma.decrypt_ns", "ns"),
    ("qarma.key_schedule_ns", "ns"),
    ("engine.crypto_ops", "count"),
    ("engine.clb_hits", "count"),
    ("engine.clb_misses", "count"),
    ("engine.clb_evictions", "count"),
    ("engine.clb_invalidations", "count"),
    ("engine.epoch_rekeys", "count"),
    ("engine.clb_hit_ratio_full", "ratio"),
    ("engine.clb_hit_ratio_rekey", "ratio"),
    ("engine.clb_hit_ratio_unixbench_full", "ratio"),
    ("engine.encrypt_miss_ns", "ns"),
    ("engine.clb_hit_ns", "ns"),
    ("engine.est_busy_pct", "%"),
    ("exec.guest_insns", "count"),
    ("exec.guest_mips", "Minsn/s"),
    ("exec.interp_mips", "Minsn/s"),
    ("exec.tier_insns", "count"),
    ("exec.tier_coverage", "ratio"),
    ("exec.decode_hit_ratio", "ratio"),
    ("exec.sb_built", "count"),
    ("exec.sb_side_exits", "count"),
    ("exec.sb_invalidations", "count"),
    ("kernel.boot_us", "us"),
    ("kernel.boot_pct", "%"),
    ("kernel.run_user_pct", "%"),
    ("kernel.modelled_insns", "count"),
    ("kernel.modelled_share", "ratio"),
    ("kernel.modelled_mips", "Minsn/s"),
    ("kernel.syscalls", "count"),
    ("kernel.context_switches", "count"),
    ("kernel.timer_irqs", "count"),
    ("kernel.full_overhead_pct", "%"),
    ("kernel.rekey_overhead_pct", "%"),
    ("snapshot.pages", "count"),
    ("snapshot.capture_us", "us"),
    ("snapshot.fork_us", "us"),
    ("snapshot.arch_digest_us", "us"),
    ("snapshot.arch_digest_us_per_page", "us"),
    ("snapshot.kernel_clone_us", "us"),
    ("snapshot.est_restore_share_pct", "%"),
    ("server.new_pct", "%"),
    ("server.run_pct", "%"),
    ("server.offered", "count"),
    ("server.served", "count"),
    ("server.failed", "count"),
    ("server.shed", "count"),
    ("server.faults", "count"),
    ("server.recoveries", "count"),
    ("server.micro_reboots", "count"),
    ("server.cold_restarts", "count"),
    ("server.breaker_opens", "count"),
    ("fleet.boot_pct", "%"),
    ("fleet.fork_pct", "%"),
    ("fleet.kills", "count"),
    ("fleet.dirty_pages_mean", "pages"),
    ("fleet.recovery_p99_cycles", "cycles"),
    ("workloads.build_setup_pct", "%"),
    ("workloads.reference_setup_pct", "%"),
];

/// Counters the superblock tier alone moves; a pass with the tier off must
/// match a pass with it on in everything else.
const TIER_KEYS: [&str; 5] = [
    "decode_hits",
    "tier_insns",
    "sb_built",
    "sb_side_exits",
    "sb_invalidations",
];

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub kind: Kind,
    /// Round `r` runs with seed `seed + r`.
    pub seed: u64,
    /// Time budget for the timed rounds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// One setup and one round, no time budget.
    pub smoke: bool,
    /// Where a traced run writes its Chrome trace.
    pub trace_out: PathBuf,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations checked: guest runs, or offered requests.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// `(name, value, unit)`: the end-to-end metrics, or the per-layer
    /// ones for a traced run.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Everything in the run that depends only on the workload and seed.
    pub deterministic: Value,
    /// Human-readable report lines.
    pub summary: Vec<String>,
}

/// One timed round.
struct Timed {
    /// Host nanoseconds of the round as measured (traced in a traced run).
    ns: f64,
    /// Host nanoseconds of the untraced twin of a traced round.
    untraced_ns: f64,
    out: RoundOut,
}

/// Renders `value` as JSON on one line (strings never hold raw newlines).
#[must_use]
pub fn one_line(value: &Value) -> String {
    value.render().lines().map(str::trim_start).collect()
}

/// Runs one round with the superblock tier on, timed, and records it as a
/// `bench.round` span when `spans` is on.
fn timed_round(inputs: &Inputs, seed: u64, spans: &mut Spans) -> (f64, RoundOut) {
    let start = Instant::now();
    let out = workload::run_round(inputs, seed, true, spans);
    let end = Instant::now();
    spans.push("bench", "round", "", start, end);
    ((end - start).as_secs_f64() * 1e9, out)
}

struct Setup {
    inputs: Inputs,
    times: SetupTimes,
    seconds: Vec<f64>,
    warmups: Vec<Tally>,
}

/// Builds the inputs and runs one discarded warm-up round, `reps` times.
/// The warm-up seed is fixed, so set-up does the same work whatever the
/// run's seed.
fn setup(kind: Kind, reps: usize) -> Setup {
    let mut times = SetupTimes::default();
    let mut seconds = Vec::new();
    let mut warmups = Vec::new();
    let mut inputs = None;
    for _ in 0..reps {
        let start = Instant::now();
        let (built, rep_times) = workload::prepare(kind);
        let warm = workload::run_round(&built, WARMUP_SEED, true, &mut Spans::new(false));
        seconds.push(start.elapsed().as_secs_f64());
        times.build_ns += rep_times.build_ns;
        times.reference_ns += rep_times.reference_ns;
        warmups.push(warm.tally);
        inputs = Some(built);
    }
    Setup {
        inputs: inputs.expect("at least one setup repetition"),
        times,
        seconds,
        warmups,
    }
}

/// Runs the benchmark.
///
/// # Errors
///
/// Fails only when a traced run cannot write its Chrome trace.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let det_rounds = if opts.smoke {
        1
    } else {
        opts.kind.det_rounds()
    };
    let budget = Duration::from_secs_f64(if opts.smoke { 0.0 } else { opts.seconds });
    let setup = setup(opts.kind, if opts.smoke { 1 } else { SETUP_REPS });

    let mut spans = Spans::new(opts.trace);
    let mut rounds: Vec<Timed> = Vec::new();
    // Operations of rounds whose counts disagreed with a twin run of the
    // same seed (another warm-up, the untraced twin, the tier-off pass).
    let mut diverged: u64 = setup
        .warmups
        .iter()
        .filter(|warm| **warm != setup.warmups[0])
        .map(|warm| warm.get("ops"))
        .sum();
    let start = Instant::now();
    let mut r = 0u64;
    while r < det_rounds || start.elapsed() < budget {
        let seed = opts.seed.wrapping_add(r);
        spans.set_round(r);
        let round = if opts.trace {
            // Alternate which twin runs first, so warm-cache effects fall
            // on both sides equally.
            let plain = || timed_round(&setup.inputs, seed, &mut Spans::new(false));
            let before = r.is_multiple_of(2).then(plain);
            let (ns, out) = timed_round(&setup.inputs, seed, &mut spans);
            let (untraced_ns, twin) = before.unwrap_or_else(plain);
            if twin.tally != out.tally {
                diverged += out.tally.get("ops");
            }
            Timed {
                ns,
                untraced_ns,
                out,
            }
        } else {
            let (ns, out) = timed_round(&setup.inputs, seed, &mut spans);
            Timed {
                ns,
                untraced_ns: ns,
                out,
            }
        };
        rounds.push(round);
        r += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();

    let mut det = Tally::default();
    let mut total = Tally::default();
    for (i, round) in rounds.iter().enumerate() {
        if (i as u64) < det_rounds {
            det.merge(&round.out.tally);
        }
        total.merge(&round.out.tally);
    }

    let mut summary = vec![format!(
        "workload {} seed {}: {} rounds in {elapsed:.2} s ({}), deterministic section over the first {det_rounds}; setup {} x",
        opts.kind.name(),
        opts.seed,
        rounds.len(),
        if opts.trace { "traced, each with an untraced twin" } else { "untraced" },
        setup.seconds.len(),
    )];
    let exact = exact_metrics(&det);
    let metrics = if opts.trace {
        let ledger = Ledger {
            opts,
            setup: &setup,
            rounds: &rounds,
            spans: &spans,
            det: &det,
            total: &total,
            exact: &exact,
        };
        let (values, interp_diverged) = ledger.per_layer();
        diverged += interp_diverged;
        let path = &opts.trace_out;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, spans.chrome_trace().render())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        summary.push(format!(
            "{} spans written to {}",
            spans.spans().len(),
            path.display()
        ));
        in_order(&PER_LAYER, &values)
    } else {
        in_order(&END_TO_END, &end_to_end(&setup, &rounds, &exact))
    };
    let samples = det.hist("latency").count();
    summary.push(format!(
        "latency: {samples} samples in the deterministic section, {} beyond p99",
        samples - (samples as f64 * 0.99).ceil() as u64
    ));
    for (name, value, unit) in &metrics {
        summary.push(format!("  {name:<38} {value:>16.4} {unit}"));
    }
    let failed = total.get("check_failures") + diverged;
    summary.push(format!(
        "checks: {} operations attempted, {failed} failed",
        total.get("ops")
    ));

    let deterministic = Value::Obj(vec![
        ("workload".into(), Value::Str(opts.kind.name().into())),
        ("seed".into(), Value::Int(opts.seed)),
        ("rounds".into(), Value::Int(det_rounds)),
        (
            "exact".into(),
            Value::Obj(
                exact
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), Value::Num(*v)))
                    .collect(),
            ),
        ),
        ("tally".into(), det.to_json()),
    ]);
    Ok(Outcome {
        attempted: total.get("ops"),
        failed,
        metrics,
        deterministic,
        summary,
    })
}

fn in_order(
    table: &[(&'static str, &'static str)],
    values: &BTreeMap<&'static str, f64>,
) -> Vec<(&'static str, f64, &'static str)> {
    table
        .iter()
        .map(|&(name, unit)| {
            let value = *values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} is computed"));
            (name, value, unit)
        })
        .collect()
}

/// Geometric-mean simulated-cycle overhead of `config` over `off` across
/// the suite guests, in percent.
fn overhead_pct(det: &Tally, config: &str) -> f64 {
    let (mut log_sum, mut n) = (0.0f64, 0u32);
    for (key, off) in det.with_prefix("cycles.") {
        if let Some(stem) = key.strip_suffix(".off") {
            let on = det.get(&format!("{stem}.{config}"));
            log_sum += (on as f64 / off as f64).ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        ((log_sum / f64::from(n)).exp() - 1.0) * 100.0
    }
}

fn hit_ratio(det: &Tally, which: &str) -> f64 {
    let hits = det.get(&format!("clb_hits.{which}"));
    ratio(hits, hits + det.get(&format!("clb_misses.{which}")))
}

/// Metrics that are a function of the workload and seed alone.
fn exact_metrics(det: &Tally) -> BTreeMap<&'static str, f64> {
    let q = |p: f64| det.quantile("latency", p) as f64;
    BTreeMap::from([
        ("served_frac", det.ratio("served", "ops")),
        ("latency_p50_cycles", q(0.5)),
        ("latency_p99_cycles", q(0.99)),
        ("recovery_p99_cycles", det.quantile("recovery", 0.99) as f64),
        ("overhead_full_pct", overhead_pct(det, "full")),
        ("overhead_rekey_pct", overhead_pct(det, "rekey")),
        ("clb_hit_ratio_full", hit_ratio(det, "full")),
        ("clb_hit_ratio_rekey", hit_ratio(det, "rekey")),
        (
            "clb_hit_ratio_unixbench_full",
            hit_ratio(det, "unixbench_full"),
        ),
        ("modelled_share", det.ratio("modelled_insns", "instret")),
        ("tier_coverage", det.ratio("tier_insns", "guest_insns")),
    ])
}

/// Median over rounds of each round's `key` count per host second, with
/// round time `ns_of`.
fn rate(rounds: &[Timed], key: &str, ns_of: impl Fn(&Timed) -> f64) -> f64 {
    let mut rates: Vec<f64> = rounds
        .iter()
        .map(|r| r.out.tally.get(key) as f64 / (ns_of(r) / 1e9))
        .collect();
    median(&mut rates)
}

fn end_to_end(
    setup: &Setup,
    rounds: &[Timed],
    exact: &BTreeMap<&'static str, f64>,
) -> BTreeMap<&'static str, f64> {
    let mut round_ms: Vec<f64> = rounds.iter().map(|r| r.ns / 1e6).collect();
    let ns = |r: &Timed| r.ns;
    BTreeMap::from([
        ("setup_s", median(&mut setup.seconds.clone())),
        ("round_ms_p50", median(&mut round_ms)),
        ("sim_mcycles_per_s", rate(rounds, "sim_cycles", ns) / 1e6),
        ("served_per_s", rate(rounds, "served", ns)),
        ("served_frac", exact["served_frac"]),
        ("latency_p50_cycles", exact["latency_p50_cycles"]),
        ("latency_p99_cycles", exact["latency_p99_cycles"]),
    ])
}

/// Inputs of a traced run's per-layer ledger.
struct Ledger<'a> {
    opts: &'a Options,
    setup: &'a Setup,
    rounds: &'a [Timed],
    spans: &'a Spans,
    det: &'a Tally,
    total: &'a Tally,
    exact: &'a BTreeMap<&'static str, f64>,
}

impl Ledger<'_> {
    /// Share of traced round time spent in spans `layer.name`, in percent.
    fn share(&self, layer: &str, name: &str) -> f64 {
        100.0 * self.spans.total_ns(layer, name) as f64
            / self.spans.total_ns("bench", "round").max(1) as f64
    }

    fn fleet_share(&self, part: impl Fn(&FleetHostStats) -> u64) -> f64 {
        let ns: u64 = self
            .rounds
            .iter()
            .filter_map(|r| r.out.fleet_host.as_ref())
            .map(part)
            .sum();
        100.0 * ns as f64 / self.spans.total_ns("bench", "round").max(1) as f64
    }

    /// The per-layer metrics, and the operations of a tier-off pass whose
    /// architectural counts disagreed with the tier-on round.
    fn per_layer(&self) -> (BTreeMap<&'static str, f64>, u64) {
        let kind = self.opts.kind;
        let seed = self.opts.seed;
        let det = self.det;
        let suite = matches!(kind, Kind::SpecUser | Kind::SyscallKernel);
        let fleet = matches!(kind, Kind::FleetCalm | Kind::FleetChaos);
        let mut m = BTreeMap::new();

        let mut untraced_ms: Vec<f64> = self.rounds.iter().map(|r| r.untraced_ns / 1e6).collect();
        let mut traced_ms: Vec<f64> = self.rounds.iter().map(|r| r.ns / 1e6).collect();
        let untraced_p50 = median(&mut untraced_ms.clone());
        m.insert("bench.round_ms_p90", quantile(&mut untraced_ms, 0.9));
        m.insert(
            "bench.trace_overhead_pct",
            (median(&mut traced_ms) / untraced_p50 - 1.0) * 100.0,
        );
        let layer_spans = [
            ("kernel", "boot", "kernel.boot_pct"),
            ("kernel", "run_user", "kernel.run_user_pct"),
            ("server", "new", "server.new_pct"),
            ("bench", "check", "bench.check_pct"),
        ];
        let mut covered = 0.0;
        for (layer, name, metric) in layer_spans {
            let share = self.share(layer, name);
            covered += share;
            m.insert(metric, share);
        }
        let server_run = self.share("server", "run") + self.share("server", "fleet");
        covered += server_run;
        m.insert("server.run_pct", server_run);
        m.insert("bench.residual_pct", 100.0 - covered);

        let (encrypt, decrypt, schedule) = probes::qarma_ns();
        m.insert("qarma.encrypt_ns", encrypt);
        m.insert("qarma.decrypt_ns", decrypt);
        m.insert("qarma.key_schedule_ns", schedule);

        for (metric, key) in [
            ("engine.crypto_ops", "crypto_ops"),
            ("engine.clb_hits", "clb_hits"),
            ("engine.clb_misses", "clb_misses"),
            ("engine.clb_evictions", "clb_evictions"),
            ("engine.clb_invalidations", "clb_invalidations"),
            ("engine.epoch_rekeys", "epoch_rekeys"),
            ("exec.guest_insns", "guest_insns"),
            ("exec.tier_insns", "tier_insns"),
            ("exec.sb_built", "sb_built"),
            ("exec.sb_side_exits", "sb_side_exits"),
            ("exec.sb_invalidations", "sb_invalidations"),
            ("kernel.modelled_insns", "modelled_insns"),
            ("kernel.syscalls", "syscalls"),
            ("kernel.context_switches", "context_switches"),
            ("kernel.timer_irqs", "timer_irqs"),
            ("server.failed", "serve.failed"),
            ("server.shed", "serve.shed"),
            ("server.faults", "serve.faults"),
            ("server.recoveries", "serve.recoveries"),
            ("server.micro_reboots", "serve.micro_reboots"),
            ("server.cold_restarts", "serve.cold_restarts"),
            ("server.breaker_opens", "serve.breaker_opens"),
            ("fleet.kills", "fleet.kills"),
        ] {
            m.insert(metric, det.get(key) as f64);
        }
        // The fleet's failures and sheds land in the server counters too.
        *m.get_mut("server.failed").expect("inserted") += det.get("fleet.failed") as f64;
        *m.get_mut("server.shed").expect("inserted") += det.get("fleet.shed") as f64;
        // Suite guest runs are not server requests.
        let (offered, served) = if suite {
            (0, 0)
        } else {
            (det.get("ops"), det.get("served"))
        };
        m.insert("server.offered", offered as f64);
        m.insert("server.served", served as f64);

        for (metric, key) in [
            ("engine.clb_hit_ratio_full", "clb_hit_ratio_full"),
            ("engine.clb_hit_ratio_rekey", "clb_hit_ratio_rekey"),
            (
                "engine.clb_hit_ratio_unixbench_full",
                "clb_hit_ratio_unixbench_full",
            ),
            ("exec.tier_coverage", "tier_coverage"),
            ("kernel.modelled_share", "modelled_share"),
            ("kernel.full_overhead_pct", "overhead_full_pct"),
            ("kernel.rekey_overhead_pct", "overhead_rekey_pct"),
            ("fleet.recovery_p99_cycles", "recovery_p99_cycles"),
        ] {
            m.insert(metric, self.exact[key]);
        }
        m.insert(
            "exec.decode_hit_ratio",
            det.ratio("decode_hits", "guest_insns"),
        );
        m.insert(
            "fleet.dirty_pages_mean",
            det.ratio("fleet.dirty_pages", "fleet.instances"),
        );
        m.insert("fleet.boot_pct", self.fleet_share(|h| h.boot_nanos));
        m.insert("fleet.fork_pct", self.fleet_share(|h| h.fork_nanos_total));

        let untraced = |r: &Timed| r.untraced_ns;
        m.insert(
            "exec.guest_mips",
            rate(self.rounds, "guest_insns", untraced) / 1e6,
        );
        m.insert(
            "kernel.modelled_mips",
            rate(self.rounds, "modelled_insns", untraced) / 1e6,
        );

        // One extra pass of the first round's seed with the superblock
        // tier off: the interpreter's own speed, and a check that the tier
        // changed nothing architectural.
        let mut diverged = 0;
        let mut interp_mips = 0.0;
        if suite {
            let start = Instant::now();
            let off = workload::run_round(&self.setup.inputs, seed, false, &mut Spans::new(false));
            let ns = start.elapsed().as_secs_f64() * 1e9;
            interp_mips = off.tally.get("guest_insns") as f64 * 1e3 / ns;
            let on = &self.rounds[0].out.tally;
            if off.tally.without(&TIER_KEYS) != on.without(&TIER_KEYS) {
                diverged += on.get("ops");
            }
        }
        m.insert("exec.interp_mips", interp_mips);

        let (miss_ns, hit_ns) = probes::engine_ns(seed);
        m.insert("engine.encrypt_miss_ns", miss_ns);
        m.insert("engine.clb_hit_ns", hit_ns);
        let busy_ns = self.total.get("clb_misses") as f64 * miss_ns
            + self.total.get("clb_hits") as f64 * hit_ns;
        let busy_span = if suite {
            self.spans.total_ns("kernel", "run_user")
        } else {
            self.spans.total_ns("server", "run")
        };
        m.insert(
            "engine.est_busy_pct",
            if busy_span == 0 {
                0.0
            } else {
                100.0 * busy_ns / busy_span as f64
            },
        );

        let boot_config = workload::kernel_config("full", seed);
        m.insert(
            "kernel.boot_us",
            probes::per_call_ns(20, |_| {
                std::hint::black_box(Kernel::boot(boot_config).expect("kernel boots"));
            }) / 1e3,
        );

        // Snapshot probes on the workload's own image: a FULL kernel after
        // one guest run, the serve kernel after a round, or (the fleet
        // keeps its warm image inside the program) a bare machine with as
        // many pages as the fleet's warm image.
        let mut kernel = Kernel::boot(boot_config).expect("kernel boots");
        let image = match kind {
            Kind::SpecUser | Kind::SyscallKernel => {
                let guest = &self.setup.inputs.guests[0];
                let _ = kernel.run_user(&guest.image, guest.entry, STEP_BUDGET);
                probes::snapshot(kernel.machine())
            }
            Kind::ServeFaults => {
                let mut supervisor =
                    Supervisor::new(workload::serve_config(seed)).expect("serve kernel boots");
                let _ = supervisor.run_instrumented();
                kernel = supervisor.kernel_mut().clone();
                probes::snapshot(kernel.machine())
            }
            Kind::FleetCalm | Kind::FleetChaos => {
                let pages = det.get("fleet.warm_pages") / det.get("rounds").max(1);
                probes::snapshot(&probes::bare_image(pages, seed))
            }
        };
        let clone_us = probes::kernel_clone_us(&kernel);
        m.insert("snapshot.pages", image.pages as f64);
        m.insert("snapshot.capture_us", image.capture_us);
        m.insert("snapshot.fork_us", image.fork_us);
        m.insert("snapshot.arch_digest_us", image.arch_digest_us);
        m.insert(
            "snapshot.arch_digest_us_per_page",
            image.arch_digest_us / image.pages.max(1) as f64,
        );
        m.insert("snapshot.kernel_clone_us", clone_us);
        let (restores, per_restore_us, restore_span) = if fleet {
            (
                self.total.get("fleet.micro_restores"),
                image.fork_us + image.arch_digest_us,
                self.spans.total_ns("server", "fleet"),
            )
        } else {
            (
                self.total.get("serve.micro_reboots"),
                clone_us + image.arch_digest_us,
                self.spans.total_ns("server", "run"),
            )
        };
        m.insert(
            "snapshot.est_restore_share_pct",
            if restore_span == 0 {
                0.0
            } else {
                100.0 * restores as f64 * per_restore_us * 1e3 / restore_span as f64
            },
        );

        let setup_ns: f64 = self.setup.seconds.iter().sum::<f64>() * 1e9;
        let times = &self.setup.times;
        m.insert(
            "workloads.build_setup_pct",
            100.0 * times.build_ns as f64 / setup_ns,
        );
        m.insert(
            "workloads.reference_setup_pct",
            100.0 * times.reference_ns as f64 / setup_ns,
        );
        (m, diverged)
    }
}
