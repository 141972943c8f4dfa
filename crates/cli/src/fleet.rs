//! The `fleet` subcommand: fork a fleet of machines from one warm
//! snapshot, drive them across a work-stealing pool (optionally under a
//! chaos kill schedule), and report serving/recovery accounting.

use std::fmt::Write as _;

use regvault_server::fleet::{run_fleet, FleetConfig, FleetReport};

use crate::args::{self, num, set, Flag};
use crate::json::Value;
use crate::CliError;

/// Parsed `fleet` arguments.
#[derive(Debug, Clone, Default)]
pub struct FleetArgs {
    /// Scenario configuration.
    pub config: FleetConfig,
    /// Emit machine-readable JSON.
    pub json: bool,
    /// Smoke mode: a short chaos run that exits non-zero unless the
    /// accounting identity holds, every kill was recovered, and the warm
    /// image passed its restore-integrity checks.
    pub smoke: bool,
}

/// The `fleet` flags.
#[rustfmt::skip]
pub(crate) const FLAGS: &[Flag<FleetArgs>] = &[
    Flag::value("--instances", "N", "instances forked from the warm image",
        |a, v| set(&mut a.config.instances, num(v)?)),
    Flag::value("--requests", "N", "requests per instance",
        |a, v| set(&mut a.config.requests_per_instance, num(v)?)),
    Flag::value("--rate", "CYCLES", "mean arrival gap per instance",
        |a, v| set(&mut a.config.mean_interarrival, num(v)?)),
    Flag::value("--deadline", "CYCLES", "queueing-delay budget (0: no shedding)",
        |a, v| set(&mut a.config.deadline, num(v)?)),
    Flag::value("--seed", "S", "payload, arrival and chaos seed",
        |a, v| set(&mut a.config.seed, num(v)?)),
    Flag::value("--workers", "N", "worker threads (0: one per CPU)",
        |a, v| set(&mut a.config.workers, num(v)?)),
    Flag::value("--chaos", "K", "mean requests between kills (0: no chaos)",
        |a, v| set(&mut a.config.chaos_kill_interval, num(v)?)),
    Flag::switch("--cold", "recover kills by cold boot, not re-fork",
        |a, _| set(&mut a.config.micro_restore, false)),
    Flag::switch("--json", "machine-readable JSON", |a, _| set(&mut a.json, true)),
    Flag::switch("--smoke", "short chaos run, gated on accounting and recovery",
        |a, _| set(&mut a.smoke, true)),
];

/// Parses `fleet` flags.
///
/// # Errors
///
/// Describes the offending flag or value.
pub fn parse_fleet_args(args: &[String]) -> Result<FleetArgs, CliError> {
    let mut parsed = FleetArgs::default();
    args::parse("fleet", FLAGS, args, &mut parsed, 0)?;
    if parsed.smoke {
        // Short but adversarial: a small chaotic fleet.
        let config = &mut parsed.config;
        config.instances = config.instances.min(8);
        config.requests_per_instance = config.requests_per_instance.min(16);
        if config.chaos_kill_interval == 0 {
            config.chaos_kill_interval = 6;
        }
    }
    Ok(parsed)
}

/// The deterministic keys of one fleet run, in the order of a run object
/// in `BENCH_fleet.json`: every value is a function of the configuration
/// and seed.
fn scenario_pairs(r: &FleetReport) -> Vec<(&'static str, Value)> {
    let s = &r.scenario;
    let q = |x: f64| Value::from(s.latency.quantile(x).unwrap_or(0));
    let rq = |x: f64| Value::from(s.recovery_latency.quantile(x).unwrap_or(0));
    vec![
        ("instances", s.instances.into()),
        ("offered", s.offered.into()),
        ("served", s.served.into()),
        ("failed", s.failed.into()),
        ("shed", s.shed.into()),
        ("accounting_holds", s.accounting_holds().into()),
        ("kills", s.kills.into()),
        ("micro_restores", s.micro_restores.into()),
        ("cold_boots", s.cold_boots.into()),
        ("restore_mismatches", s.restore_mismatches.into()),
        ("steps", s.steps.into()),
        ("latency_p50_cycles", q(0.5)),
        ("latency_p99_cycles", q(0.99)),
        ("recovery_p50_cycles", rq(0.5)),
        ("recovery_p99_cycles", rq(0.99)),
        ("warm_pages", s.warm_pages.into()),
        ("dirty_pages_mean", s.dirty_pages_mean().into()),
        ("dirty_pages_max", s.dirty_pages_max.into()),
        ("busy_cycles", s.busy_cycles.into()),
        ("latency_count", s.latency.count().into()),
    ]
}

/// The run object of `BENCH_fleet.json`: the deterministic keys only.
#[must_use]
pub fn scenario_json(r: &FleetReport) -> Value {
    Value::obj(scenario_pairs(r))
}

/// The `fleet --json` object of one run: [`scenario_json`]'s keys followed
/// by the host wall-clock keys, which vary from run to run.
#[must_use]
pub fn report_json(r: &FleetReport) -> Value {
    let h = &r.host;
    let mut pairs = scenario_pairs(r);
    pairs.extend([
        ("boot_nanos", h.boot_nanos.into()),
        ("fork_nanos_mean", h.fork_nanos_mean().into()),
        ("fork_speedup", h.fork_speedup().into()),
        ("steps_per_sec", r.steps_per_sec().into()),
        ("workers", h.workers.into()),
        ("run_nanos", h.run_nanos.into()),
    ]);
    Value::obj(pairs)
}

/// The per-run gate of a fleet run: the accounting identity holds, every
/// kill was recovered, the warm image passed its restore-integrity checks,
/// something was served, and an armed chaos schedule actually fired.
///
/// # Errors
///
/// Names the first invariant the run broke.
pub fn gate(r: &FleetReport, chaos_armed: bool) -> Result<(), CliError> {
    let s = &r.scenario;
    if !s.accounting_holds() {
        Err("accounting identity violated".to_owned())
    } else if chaos_armed && s.kills == 0 {
        Err("chaos never fired".to_owned())
    } else if s.micro_restores + s.cold_boots != s.kills {
        Err("unrecovered kill".to_owned())
    } else if s.restore_mismatches > 0 {
        Err("warm image failed integrity check".to_owned())
    } else if s.served == 0 {
        Err("nothing served".to_owned())
    } else {
        Ok(())
    }
}

/// Renders a fleet report for humans.
#[must_use]
pub fn render_human(report: &FleetReport) -> String {
    let s = &report.scenario;
    let h = &report.host;
    let q = |x: f64| s.latency.quantile(x).unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fleet: {} instances, {} offered = {} served + {} failed + {} shed ({})",
        s.instances,
        s.offered,
        s.served,
        s.failed,
        s.shed,
        if s.accounting_holds() {
            "accounting holds"
        } else {
            "ACCOUNTING VIOLATION"
        }
    );
    let _ = writeln!(
        out,
        "  fork      : {} warm pages shared; {:.1} dirty pages/instance \
         (max {}); fork {:.0} ns vs boot {} ns ({:.1}x cheaper)",
        s.warm_pages,
        s.dirty_pages_mean(),
        s.dirty_pages_max,
        h.fork_nanos_mean(),
        h.boot_nanos,
        h.fork_speedup(),
    );
    let _ = writeln!(
        out,
        "  serving   : {} steps across {} workers, {:.2} Msteps/s; \
         latency p50={} p90={} p99={} cycles",
        s.steps,
        h.workers,
        report.steps_per_sec() / 1e6,
        q(0.5),
        q(0.9),
        q(0.99),
    );
    if s.kills > 0 {
        let _ = writeln!(
            out,
            "  chaos     : {} kills -> {} micro-restores + {} cold boots \
             ({} integrity mismatches); recovery p50={} p99={} cycles",
            s.kills,
            s.micro_restores,
            s.cold_boots,
            s.restore_mismatches,
            s.recovery_latency.quantile(0.5).unwrap_or(0),
            s.recovery_latency.quantile(0.99).unwrap_or(0),
        );
    }
    out
}

/// Runs the fleet scenario.
///
/// # Errors
///
/// Returns flag-parse failures and — in `--smoke` mode — a non-zero exit
/// when the run fails its [`gate`].
pub fn cmd_fleet(args: &[String]) -> Result<String, CliError> {
    let args = parse_fleet_args(args)?;
    let report = run_fleet(&args.config);
    let rendered = if args.json {
        report_json(&report).render()
    } else {
        render_human(&report)
    };
    if args.smoke {
        gate(&report, args.config.chaos_kill_interval > 0)
            .map_err(|e| format!("{rendered}fleet --smoke: {e}\n"))?;
    }
    Ok(rendered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{find_number, first_run_keys, object_keys};

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| (*a).to_owned()).collect()
    }

    #[test]
    fn smoke_run_passes_the_gate() {
        let out = cmd_fleet(&s(&["--smoke", "--seed", "11"])).expect("smoke passes");
        assert!(out.contains("accounting holds"), "{out}");
        assert!(out.contains("chaos"), "{out}");
    }

    #[test]
    fn json_output_is_machine_readable() {
        let out = cmd_fleet(&s(&[
            "--json",
            "--instances",
            "4",
            "--requests",
            "8",
            "--seed",
            "3",
        ]))
        .expect("fleet runs");
        assert!(out.contains("\"accounting_holds\": true"), "{out}");
        assert_eq!(find_number(&out, "offered"), Some(32.0), "{out}");
        assert!(find_number(&out, "fork_speedup").is_some(), "{out}");
    }

    /// `fleet --json` is a `BENCH_fleet.json` run object: the committed
    /// artifact's run keys are a prefix of the CLI's, in the same order.
    #[test]
    fn json_keys_follow_the_bench_schema() {
        let bench = include_str!("../../../BENCH_fleet.json");
        let run_keys = first_run_keys(bench);
        assert!(run_keys.contains(&"recovery_p99_cycles"), "{run_keys:?}");
        let out = cmd_fleet(&s(&["--json", "--instances", "2", "--requests", "4"])).unwrap();
        let keys = object_keys(&out, 1);
        assert!(keys.starts_with(&run_keys), "{keys:?} vs {run_keys:?}");
    }

    #[test]
    fn gate_rejects_a_broken_run() {
        let mut report = run_fleet(&FleetConfig {
            instances: 2,
            requests_per_instance: 4,
            ..FleetConfig::default()
        });
        assert_eq!(gate(&report, false), Ok(()));
        assert!(gate(&report, true).unwrap_err().contains("never fired"));
        report.scenario.restore_mismatches = 1;
        assert!(gate(&report, false).unwrap_err().contains("integrity"));
        report.scenario.served += 1;
        assert!(gate(&report, false).unwrap_err().contains("accounting"));
    }

    #[test]
    fn cold_mode_recovers_by_booting() {
        let out = cmd_fleet(&s(&[
            "--instances",
            "4",
            "--requests",
            "10",
            "--chaos",
            "4",
            "--cold",
            "--seed",
            "5",
        ]))
        .expect("cold fleet runs");
        assert!(out.contains("cold boots"), "{out}");
        assert!(out.contains("0 micro-restores"), "{out}");
    }

    #[test]
    fn bad_flags_are_reported() {
        assert!(cmd_fleet(&s(&["--bogus"])).is_err());
        assert!(cmd_fleet(&s(&["--instances"])).is_err());
        assert!(cmd_fleet(&s(&["--instances", "lots"])).is_err());
    }

    /// Seed stability: the scenario object of a run is byte-identical
    /// across runs with the same seed — including across different worker
    /// counts — and changes with the seed.
    #[test]
    fn same_seed_renders_identical_scenario_json() {
        let scenario = |cfg: &FleetConfig| scenario_json(&run_fleet(cfg)).render();
        let cfg = FleetConfig {
            instances: 5,
            requests_per_instance: 10,
            chaos_kill_interval: 4,
            seed: 0xABCD,
            ..FleetConfig::default()
        };
        let a = scenario(&cfg);
        let b = scenario(&FleetConfig { workers: 1, ..cfg });
        assert_eq!(a, b, "scenario body must be seed-stable");
        let c = scenario(&FleetConfig {
            seed: 0xABCE,
            ..cfg
        });
        assert_ne!(a, c, "a different seed must actually change the run");
    }
}
