//! The observability subcommands: `trace`, `metrics` and `profile`.
//!
//! All three run a guest — either a bare-metal assembly file or a named
//! benchmark workload under the protected kernel — then export what was
//! observed. `trace` and `profile` install a tracer; `metrics` runs
//! untraced, so it reports the execution mode a plain run uses:
//!
//! * `trace` — the structured event stream, as rendered text, JSON records,
//!   or Chrome `trace_event` JSON (loadable in Perfetto / `chrome://tracing`);
//! * `metrics` — every counter and histogram the machine exports
//!   (CLB hit/miss, per-ksel QARMA ops, scheduler counters, syscall-latency
//!   histograms), human-readable or JSON;
//! * `profile` — a per-function flat profile attributing retired
//!   instructions and crypto operations to the symbol table's function
//!   extents (recovered by `regvault_verifier::cfg`).

use std::fmt::Write as _;

use regvault_isa::asm;
use regvault_kernel::{Kernel, KernelConfig, ProtectionConfig};
use regvault_metrics::Metrics;
use regvault_sim::{
    ClbStats, MachineConfig, RingTracer, TraceEvent, TraceRecord, Tracer, TrapCause,
};
use regvault_verifier::cfg::{regions_from_symbols, FuncRegion};
use regvault_workloads::{
    lmbench::Lmbench, unixbench::UnixBench, Workload, STEP_BUDGET, TIMER_INTERVAL,
};

use crate::args::{self, num, set, Flag};
use crate::json::Value;
use crate::{boot_bare_machine, read_source, usage, CliError};

/// Base address bare programs load at ([`crate::boot_bare_machine`]).
const BARE_CODE_BASE: u64 = 0x8000_0000;

/// What to run under observation.
#[derive(Debug, Clone)]
pub enum TraceSubject {
    /// A bare-metal assembly source (kernel privilege, keys installed).
    Bare(String),
    /// A named benchmark workload run under the full-protection kernel.
    Workload(String),
}

/// Output flavor for `trace`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TraceFormat {
    /// One rendered line per record.
    #[default]
    Human,
    /// A JSON object with a `records` array.
    Json,
    /// Chrome `trace_event` JSON for Perfetto.
    Chrome,
}

/// The three observation commands, which share one flag table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Observe {
    /// `trace`: the structured event stream.
    Trace,
    /// `metrics`: counters and histograms.
    Metrics,
    /// `profile`: the per-function flat profile.
    Profile,
}

/// Parsed `trace`/`metrics`/`profile` flags.
#[derive(Debug, Clone, Default)]
pub(crate) struct ObserveArgs {
    workload: Option<String>,
    format: TraceFormat,
    json: bool,
    limit: Option<usize>,
}

/// The flags of `trace`, `metrics` and `profile`.
#[rustfmt::skip]
pub(crate) const FLAGS: &[Flag<ObserveArgs>] = &[
    Flag::value("--workload", "NAME", "run a UnixBench/LMbench workload, not a file",
        |a, v| set(&mut a.workload, Some(v.to_owned()))),
    Flag::switch("--json", "JSON output", |a, _| {
        a.json = true;
        set(&mut a.format, TraceFormat::Json)
    }),
    Flag::switch("--chrome", "trace: Chrome trace_event JSON (Perfetto)",
        |a, _| set(&mut a.format, TraceFormat::Chrome)),
    Flag::value("--limit", "N", "trace: ring capacity in records",
        |a, v| set(&mut a.limit, Some(num(v)?))),
];

/// `trace|metrics|profile <file.s> | --workload <name> [flags]`.
///
/// # Errors
///
/// Flag errors, the usage text when the subject is missing or given
/// twice, and the command's own failures.
pub(crate) fn cmd_observe(cmd: Observe, args: &[String]) -> Result<String, CliError> {
    let name = match cmd {
        Observe::Trace => "trace",
        Observe::Metrics => "metrics",
        Observe::Profile => "profile",
    };
    let mut parsed = ObserveArgs::default();
    let files = args::parse(name, FLAGS, args, &mut parsed, 1)?;
    let subject = match (parsed.workload, files.first()) {
        (Some(workload), None) => TraceSubject::Workload(workload),
        (None, Some(file)) => TraceSubject::Bare(read_source(file)?),
        _ => return Err(usage()),
    };
    match cmd {
        Observe::Trace => cmd_trace(&subject, parsed.format, parsed.limit.unwrap_or(65_536)),
        Observe::Metrics => cmd_metrics(&subject, parsed.json),
        Observe::Profile => cmd_profile(&subject, parsed.json),
    }
}

/// Everything observable that a run produced.
struct RunArtifacts {
    tracer: Option<Box<dyn Tracer>>,
    metrics: Metrics,
    clb: ClbStats,
    outcome: String,
}

/// Resolves a workload name against the UnixBench and LMbench suites.
fn find_workload(name: &str) -> Result<(Box<dyn Workload>, String), CliError> {
    for item in UnixBench::ALL {
        if Workload::name(&item) == name {
            let source = item.source();
            return Ok((Box::new(item), source));
        }
    }
    for item in Lmbench::ALL {
        if Workload::name(&item) == name {
            let source = item.source();
            return Ok((Box::new(item), source));
        }
    }
    let mut known: Vec<&str> = UnixBench::ALL.iter().map(Workload::name).collect();
    known.extend(Lmbench::ALL.iter().map(Workload::name));
    Err(format!(
        "unknown workload `{name}` (expected one of: {})",
        known.join(", ")
    ))
}

/// Runs `subject`, with `tracer` installed if there is one, and collects
/// the artifacts. An untraced run takes the same execution path as a
/// plain `run` (superblock tier included).
fn execute(
    subject: &TraceSubject,
    tracer: Option<Box<dyn Tracer>>,
) -> Result<RunArtifacts, CliError> {
    match subject {
        TraceSubject::Bare(source) => {
            let mut machine = boot_bare_machine(source, false)?;
            if let Some(tracer) = tracer {
                machine.install_tracer(tracer);
            }
            let outcome = match machine.run_until_break(10_000_000) {
                Ok(()) => "break".to_owned(),
                Err(e) => e.to_string(),
            };
            Ok(RunArtifacts {
                tracer: machine.take_tracer(),
                metrics: machine.metrics(),
                clb: machine.engine().clb().stats(),
                outcome,
            })
        }
        TraceSubject::Workload(name) => {
            let (workload, _source) = find_workload(name)?;
            let (image, entry) = workload.program();
            let mut kernel = Kernel::boot(KernelConfig {
                protection: ProtectionConfig::full(),
                machine: MachineConfig::default(),
                timer_interval: Some(TIMER_INTERVAL),
            })
            .map_err(|e| e.to_string())?;
            kernel.machine_mut().reset_stats();
            if let Some(tracer) = tracer {
                kernel.machine_mut().install_tracer(tracer);
            }
            let outcome = match kernel.run_user(&image, entry, STEP_BUDGET) {
                Ok(value) => format!("break (a0 = {value})"),
                Err(e) => e.to_string(),
            };
            Ok(RunArtifacts {
                tracer: kernel.machine_mut().take_tracer(),
                metrics: kernel.machine().metrics(),
                clb: kernel.machine().engine().clb().stats(),
                outcome,
            })
        }
    }
}

fn dir(decrypt: bool) -> Value {
    (if decrypt { "crd" } else { "cre" }).into()
}

fn hex(n: u64) -> Value {
    format!("{n:#x}").into()
}

/// An event's payload as a JSON object.
fn event_args(event: &TraceEvent) -> Value {
    match event {
        TraceEvent::InsnRetire { pc, insn } => {
            Value::obj([("pc", hex(*pc)), ("insn", insn.to_string().into())])
        }
        TraceEvent::ClbHit { ksel, decrypt } | TraceEvent::ClbMiss { ksel, decrypt } => {
            Value::obj([("ksel", (*ksel).into()), ("dir", dir(*decrypt))])
        }
        TraceEvent::ClbEvict { ksel } | TraceEvent::ClbInvalidate { ksel } => {
            Value::obj([("ksel", (*ksel).into())])
        }
        TraceEvent::QarmaOp {
            ksel,
            tweak,
            decrypt,
        } => Value::obj([
            ("ksel", (*ksel).into()),
            ("tweak", hex(*tweak)),
            ("dir", dir(*decrypt)),
        ]),
        TraceEvent::CipOpen { frame } | TraceEvent::CipClose { frame } => {
            Value::obj([("frame", hex(*frame))])
        }
        TraceEvent::TrapEnter { cause } | TraceEvent::TrapExit { cause } => match cause {
            TrapCause::Syscall(num) => {
                Value::obj([("cause", "syscall".into()), ("sysno", (*num).into())])
            }
            TrapCause::Timer => Value::obj([("cause", "timer".into())]),
            TrapCause::Exception(cause) => Value::obj([
                ("cause", "exception".into()),
                ("detail", format!("{cause:?}").into()),
            ]),
        },
        TraceEvent::Fault { kind, effect } => Value::obj([
            ("kind", format!("{kind:?}").into()),
            ("effect", format!("{effect:?}").into()),
        ]),
        TraceEvent::ContextSwitch { from, to } => {
            Value::obj([("from", (*from).into()), ("to", (*to).into())])
        }
        TraceEvent::MemStore { addr, value } => {
            Value::obj([("addr", hex(*addr)), ("value", hex(*value))])
        }
    }
}

/// The retained records as Chrome `trace_event` JSON. Trap entry/exit
/// become `B`/`E` duration events (they nest properly in this kernel);
/// everything else becomes a thread-scoped instant event. The timestamp
/// axis is simulated cycles.
fn chrome_json(records: &[&TraceRecord]) -> Value {
    let events = records.iter().map(|record| {
        let (name, cat, ph) = match &record.event {
            TraceEvent::TrapEnter { cause } => (cause.label(), "trap", "B"),
            TraceEvent::TrapExit { cause } => (cause.label(), "trap", "E"),
            event => (event.kind(), "sim", "i"),
        };
        let mut pairs = vec![
            ("name", name.into()),
            ("cat", cat.into()),
            ("ph", ph.into()),
        ];
        if ph == "i" {
            pairs.push(("s", "t".into()));
        }
        pairs.extend([
            ("ts", record.cycle.into()),
            ("pid", 1u64.into()),
            ("tid", 1u64.into()),
            ("args", event_args(&record.event)),
        ]);
        Value::obj(pairs)
    });
    Value::obj([
        ("traceEvents", Value::arr(events)),
        ("displayTimeUnit", "ns".into()),
    ])
}

/// `trace` subcommand: run under a [`RingTracer`] and export the stream.
///
/// # Errors
///
/// Assembler diagnostics and unknown workload names.
pub fn cmd_trace(
    subject: &TraceSubject,
    format: TraceFormat,
    limit: usize,
) -> Result<String, CliError> {
    let artifacts = execute(subject, Some(Box::new(RingTracer::new(limit.max(1)))))?;
    let tracer = artifacts.tracer.expect("tracer survives the run");
    let ring = tracer
        .into_any()
        .downcast::<RingTracer>()
        .expect("the installed tracer is a ring");
    let records = ring.records();
    match format {
        TraceFormat::Chrome => Ok(chrome_json(&records).render()),
        TraceFormat::Json => {
            let records = records.iter().map(|record| {
                Value::obj([
                    ("cycle", record.cycle.into()),
                    ("instret", record.instret.into()),
                    ("kind", record.event.kind().into()),
                    ("args", event_args(&record.event)),
                ])
            });
            Ok(Value::obj([
                ("records", Value::arr(records)),
                ("emitted", ring.emitted().into()),
                ("dropped", ring.dropped_any().into()),
                ("outcome", artifacts.outcome.into()),
            ])
            .render())
        }
        TraceFormat::Human => {
            let mut out = String::new();
            for record in &records {
                let _ = writeln!(out, "{}", record.render());
            }
            let _ = writeln!(
                out,
                "{} record(s) shown of {} emitted; outcome: {}",
                records.len(),
                ring.emitted(),
                artifacts.outcome
            );
            Ok(out)
        }
    }
}

/// `metrics` subcommand: run and export the machine's counters and
/// histograms ([`regvault_sim::Machine::metrics`]).
///
/// # Errors
///
/// Assembler diagnostics and unknown workload names.
pub fn cmd_metrics(subject: &TraceSubject, json: bool) -> Result<String, CliError> {
    let artifacts = execute(subject, None)?;
    let metrics = &artifacts.metrics;
    let clb = artifacts.clb;
    let hits = metrics.get("clb_hits").unwrap_or(0);
    let misses = metrics.get("clb_misses").unwrap_or(0);
    let lookups = hits + misses;
    let hit_rate = if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    };

    if json {
        let counters = metrics
            .counters
            .iter()
            .map(|&(name, value)| (name, value.into()));
        let histograms = metrics.histograms.iter().map(|(name, data)| {
            // Raw log2 buckets as [lower_bound, count] pairs (empty buckets
            // elided), so downstream tooling can re-derive any quantile.
            let buckets = data
                .nonzero_buckets()
                .map(|(lo, n)| Value::arr([lo.into(), n.into()]));
            let summary = Value::obj([
                ("count", data.count().into()),
                ("sum", data.sum().into()),
                ("mean", data.mean().into()),
                ("min", data.min().unwrap_or(0).into()),
                ("max", data.max().unwrap_or(0).into()),
                ("p50", data.quantile(0.50).unwrap_or(0).into()),
                ("p90", data.quantile(0.90).unwrap_or(0).into()),
                ("p99", data.quantile(0.99).unwrap_or(0).into()),
                ("buckets", Value::arr(buckets)),
            ]);
            (*name, summary)
        });
        let clb_stats = Value::obj([
            ("hits", clb.hits.into()),
            ("misses", clb.misses.into()),
            ("evictions", clb.evictions.into()),
            ("invalidations", clb.invalidations.into()),
        ]);
        Ok(Value::obj([
            ("counters", Value::obj(counters)),
            ("histograms", Value::obj(histograms)),
            ("clb_hit_rate", hit_rate.into()),
            ("clb", clb_stats),
            ("outcome", artifacts.outcome.into()),
        ])
        .render())
    } else {
        let mut out = String::new();
        let _ = writeln!(out, "counters:");
        let mut counters = metrics.counters.clone();
        counters.sort_by(|a, b| a.0.cmp(b.0));
        for (name, value) in counters {
            let _ = writeln!(out, "  {name:<28} {value}");
        }
        let _ = writeln!(out, "histograms:");
        for (name, data) in &metrics.histograms {
            let _ = writeln!(
                out,
                "  {name:<28} count={} mean={:.1} min={} p50={} p90={} p99={} max={}",
                data.count(),
                data.mean(),
                data.min().unwrap_or(0),
                data.quantile(0.50).unwrap_or(0),
                data.quantile(0.90).unwrap_or(0),
                data.quantile(0.99).unwrap_or(0),
                data.max().unwrap_or(0)
            );
        }
        let _ = writeln!(
            out,
            "CLB: {:.1}% hit rate ({hits} hits / {misses} misses), {} evictions",
            hit_rate * 100.0,
            clb.evictions
        );
        let _ = writeln!(out, "outcome: {}", artifacts.outcome);
        Ok(out)
    }
}

/// Per-function flat profiler: a [`Tracer`] that attributes retired
/// instructions and crypto operations to the function extent containing
/// the program counter (extents come from the assembler symbol table via
/// [`regions_from_symbols`]).
#[derive(Debug, Clone)]
pub struct ProfileTracer {
    code_base: u64,
    regions: Vec<FuncRegion>,
    steps: Vec<u64>,
    crypto: Vec<u64>,
    qarma: Vec<u64>,
    other_steps: u64,
    other_crypto: u64,
    other_qarma: u64,
    current: Option<usize>,
}

impl ProfileTracer {
    /// Builds a profiler over `regions` for an image loaded at `code_base`.
    #[must_use]
    pub fn new(code_base: u64, regions: Vec<FuncRegion>) -> Self {
        let n = regions.len();
        Self {
            code_base,
            regions,
            steps: vec![0; n],
            crypto: vec![0; n],
            qarma: vec![0; n],
            other_steps: 0,
            other_crypto: 0,
            other_qarma: 0,
            current: None,
        }
    }

    /// Index of the region containing byte offset `off`, if any.
    fn locate(&self, off: u64) -> Option<usize> {
        let idx = self.regions.partition_point(|r| r.start <= off);
        if idx == 0 {
            return None;
        }
        let candidate = idx - 1;
        (off < self.regions[candidate].end).then_some(candidate)
    }
}

impl Tracer for ProfileTracer {
    fn emit(&mut self, record: TraceRecord) {
        match record.event {
            TraceEvent::InsnRetire { pc, .. } => {
                self.current = self.locate(pc.wrapping_sub(self.code_base));
                match self.current {
                    Some(i) => self.steps[i] += 1,
                    None => self.other_steps += 1,
                }
            }
            // A hit or a miss is one crypto operation; a miss additionally
            // ran the QARMA core. Kernel-side crypto (CIP frames, protected
            // fields touched while servicing this function's trap) charges
            // the function that was executing.
            TraceEvent::ClbHit { .. } | TraceEvent::ClbMiss { .. } => match self.current {
                Some(i) => self.crypto[i] += 1,
                None => self.other_crypto += 1,
            },
            TraceEvent::QarmaOp { .. } => match self.current {
                Some(i) => self.qarma[i] += 1,
                None => self.other_qarma += 1,
            },
            _ => {}
        }
    }

    fn boxed_clone(&self) -> Box<dyn Tracer> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// `profile` subcommand: per-function flat profile of a run.
///
/// # Errors
///
/// Assembler diagnostics and unknown workload names.
pub fn cmd_profile(subject: &TraceSubject, json: bool) -> Result<String, CliError> {
    // Pre-assemble once to build the symbol regions the profiler needs
    // before the run starts.
    let (symbols, image_len, code_base) = match subject {
        TraceSubject::Bare(source) => {
            let program = asm::assemble(source).map_err(|e| e.to_string())?;
            let symbols: Vec<(String, u64)> = program
                .symbols()
                .iter()
                .map(|(name, off)| (name.clone(), *off))
                .collect();
            (symbols, program.bytes().len() as u64, BARE_CODE_BASE)
        }
        TraceSubject::Workload(name) => {
            let (workload, source) = find_workload(name)?;
            let program = asm::assemble(&source).map_err(|e| e.to_string())?;
            let symbols: Vec<(String, u64)> = program
                .symbols()
                .iter()
                .map(|(sym, off)| (sym.clone(), *off))
                .collect();
            let (image, _) = workload.program();
            (
                symbols,
                image.len() as u64,
                regvault_kernel::layout::USER_CODE_BASE,
            )
        }
    };
    let regions = regions_from_symbols(
        symbols.iter().map(|(name, off)| (name, off)),
        image_len,
        &[],
    );
    let profiler = ProfileTracer::new(code_base, regions);
    let artifacts = execute(subject, Some(Box::new(profiler)))?;
    let profiler = artifacts
        .tracer
        .expect("tracer survives the run")
        .into_any()
        .downcast::<ProfileTracer>()
        .expect("the installed tracer is the profiler");

    let total_steps: u64 = profiler.steps.iter().sum::<u64>() + profiler.other_steps;
    if json {
        let counts = |steps: u64, crypto: u64, qarma: u64| -> [(&str, Value); 3] {
            [
                ("steps", steps.into()),
                ("crypto_ops", crypto.into()),
                ("qarma_ops", qarma.into()),
            ]
        };
        let functions = profiler.regions.iter().enumerate().map(|(i, region)| {
            let mut pairs = vec![("name", region.name.as_str().into())];
            pairs.extend(counts(
                profiler.steps[i],
                profiler.crypto[i],
                profiler.qarma[i],
            ));
            Value::obj(pairs)
        });
        let other = counts(
            profiler.other_steps,
            profiler.other_crypto,
            profiler.other_qarma,
        );
        Ok(Value::obj([
            ("functions", Value::arr(functions)),
            ("other", Value::obj(other)),
            ("total_steps", total_steps.into()),
            ("outcome", artifacts.outcome.into()),
        ])
        .render())
    } else {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:>12} {:>7} {:>10} {:>10}",
            "function", "steps", "%", "crypto", "qarma"
        );
        let mut order: Vec<usize> = (0..profiler.regions.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(profiler.steps[i]));
        for i in order {
            let pct = if total_steps == 0 {
                0.0
            } else {
                profiler.steps[i] as f64 / total_steps as f64 * 100.0
            };
            let _ = writeln!(
                out,
                "{:<24} {:>12} {:>6.1}% {:>10} {:>10}",
                profiler.regions[i].name,
                profiler.steps[i],
                pct,
                profiler.crypto[i],
                profiler.qarma[i]
            );
        }
        if profiler.other_steps + profiler.other_crypto + profiler.other_qarma > 0 {
            let _ = writeln!(
                out,
                "{:<24} {:>12} {:>7} {:>10} {:>10}",
                "(outside image)",
                profiler.other_steps,
                "",
                profiler.other_crypto,
                profiler.other_qarma
            );
        }
        let _ = writeln!(
            out,
            "total: {total_steps} steps; outcome: {}",
            artifacts.outcome
        );
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::find_number;

    const CRYPTO_PROGRAM: &str = "main:
         li   t1, 0x9000
         li   a0, 0xbeef
         jal  ra, helper
         ebreak
helper:
         creak a0, a0[3:0], t1
         crdak a0, a0, t1, [3:0]
         ret";

    #[test]
    fn trace_human_renders_crypto_events() {
        let subject = TraceSubject::Bare(CRYPTO_PROGRAM.to_owned());
        let out = cmd_trace(&subject, TraceFormat::Human, 4096).unwrap();
        assert!(out.contains("clb_miss"), "{out}");
        assert!(out.contains("qarma"), "{out}");
        assert!(out.contains("outcome: break"), "{out}");
    }

    #[test]
    fn trace_chrome_renders_trace_events() {
        let subject = TraceSubject::Bare(CRYPTO_PROGRAM.to_owned());
        let out = cmd_trace(&subject, TraceFormat::Chrome, 4096).unwrap();
        assert!(out.starts_with("{\n  \"traceEvents\": [\n"), "{out}");
        assert!(out.contains("\"ph\": \"i\""), "{out}");
        assert!(out.contains("\"name\": \"qarma\""), "{out}");
    }

    #[test]
    fn trace_json_counts_records() {
        let subject = TraceSubject::Bare(CRYPTO_PROGRAM.to_owned());
        let out = cmd_trace(&subject, TraceFormat::Json, 4096).unwrap();
        assert!(find_number(&out, "emitted").unwrap() > 0.0, "{out}");
        assert!(out.contains("\"kind\": \"insn\""), "{out}");
    }

    #[test]
    fn metrics_match_clb_stats() {
        let subject = TraceSubject::Bare(CRYPTO_PROGRAM.to_owned());
        let out = cmd_metrics(&subject, true).unwrap();
        // The exported counters and the CLB's own stats are reported side
        // by side; cross-check them.
        let grab = |key: &str| find_number(&out, key).unwrap_or_else(|| panic!("{key} in {out}"));
        assert_eq!(grab("clb_hits"), grab("hits"));
        assert_eq!(grab("clb_misses"), grab("misses"));
    }

    /// `metrics` runs untraced, so a hot loop reaches the superblock tier
    /// and retires exactly what `run` retires.
    #[test]
    fn metrics_report_the_untraced_execution_mode() {
        const HOT_LOOP: &str = "main:
         li   t0, 0
         li   t1, 20000
loop:
         addi t0, t0, 1
         add  a0, a0, t0
         xor  a1, a1, a0
         blt  t0, t1, loop
         ebreak";
        let out = cmd_metrics(&TraceSubject::Bare(HOT_LOOP.to_owned()), true).unwrap();
        let grab = |key: &str| find_number(&out, key).unwrap_or_else(|| panic!("{key} in {out}"));
        assert!(grab("superblock_insns") > 0.0, "{out}");
        let run = crate::cmd_run(HOT_LOOP, 10_000_000).unwrap();
        let expected = format!(
            "halted after {} instructions, {} cycles",
            grab("instret"),
            grab("cycles")
        );
        assert!(run.starts_with(&expected), "{expected} vs {run}");
    }

    #[test]
    fn metrics_json_reports_quantiles_and_buckets() {
        let subject = TraceSubject::Workload("syscall".to_owned());
        let out = cmd_metrics(&subject, true).unwrap();
        // The kernel's histograms (syscall_cycles) must carry computed
        // quantiles alongside the raw log2 buckets.
        let at = out
            .find("\"syscall_cycles\": {")
            .expect("syscall_cycles histogram");
        let histogram = &out[at..];
        for key in ["count", "p50", "p90", "p99"] {
            assert!(find_number(histogram, key).is_some(), "{key} in {out}");
        }
        assert!(histogram.contains("\"buckets\": [\n        ["), "{out}");
    }

    #[test]
    fn profile_attributes_crypto_to_helper() {
        let subject = TraceSubject::Bare(CRYPTO_PROGRAM.to_owned());
        let out = cmd_profile(&subject, false).unwrap();
        let helper_line = out
            .lines()
            .find(|l| l.starts_with("helper"))
            .unwrap_or_else(|| panic!("helper row in {out}"));
        // helper executes both crypto instructions.
        assert!(helper_line.contains('2'), "{helper_line}");
        assert!(out.contains("main"), "{out}");
    }

    #[test]
    fn unknown_workload_is_rejected() {
        let subject = TraceSubject::Workload("no-such-bench".to_owned());
        assert!(cmd_trace(&subject, TraceFormat::Human, 16).is_err());
        assert!(cmd_metrics(&subject, false).is_err());
        assert!(cmd_profile(&subject, false).is_err());
    }
}
