//! The `serve` subcommand: run the supervised multi-tenant server scenario
//! and report sustained throughput, latency quantiles, and recovery
//! accounting.

use std::fmt::Write as _;

use regvault_server::{ServeConfig, ServeReport, Supervisor};

use crate::args::{self, num, set, Flag};
use crate::json::Value;
use crate::{parse_config, CliError};

/// Parsed `serve` arguments.
#[derive(Debug, Clone, Default)]
pub struct ServeArgs {
    /// Scenario configuration.
    pub config: ServeConfig,
    /// Emit machine-readable JSON.
    pub json: bool,
    /// Smoke mode: a short faulted run that exits non-zero unless the
    /// accounting identity holds and the run completed.
    pub smoke: bool,
}

/// The `serve` flags.
#[rustfmt::skip]
pub(crate) const FLAGS: &[Flag<ServeArgs>] = &[
    Flag::value("--tenants", "N", "tenant slots", |a, v| set(&mut a.config.tenants, num(v)?)),
    Flag::value("--requests", "N", "requests to offer",
        |a, v| set(&mut a.config.requests, num(v)?)),
    Flag::value("--rate", "CYCLES", "mean arrival gap",
        |a, v| set(&mut a.config.mean_interarrival, num(v)?)),
    Flag::value("--faults", "INSNS", "mean gap between injected faults (0: none)",
        |a, v| set(&mut a.config.fault_interval, num(v)?)),
    Flag::value("--seed", "S", "arrival and fault seed", |a, v| set(&mut a.config.seed, num(v)?)),
    Flag::value("--queue-cap", "N", "per-tenant queue bound",
        |a, v| set(&mut a.config.queue_cap, num(v)?)),
    Flag::switch("--no-micro-reboot", "recover escalations by cold reboot only",
        |a, _| set(&mut a.config.micro_reboot, false)),
    Flag::value("--deadline-factor", "K", "shed requests queued past K x p99 latency (0: off)",
        |a, v| set(&mut a.config.deadline_factor, num(v)?)),
    Flag::value("--config", "LABEL", "protection: base|ra|fp|non-control|full",
        |a, v| set(&mut a.config.protection, parse_config(v)?)),
    Flag::switch("--json", "machine-readable JSON", |a, _| set(&mut a.json, true)),
    Flag::switch("--smoke", "short faulted run, gated on the accounting identity",
        |a, _| set(&mut a.smoke, true)),
];

/// Parses `serve` flags.
///
/// # Errors
///
/// Describes the offending flag or value.
pub fn parse_serve_args(args: &[String]) -> Result<ServeArgs, CliError> {
    let mut parsed = ServeArgs::default();
    args::parse("serve", FLAGS, args, &mut parsed, 0)?;
    if parsed.smoke {
        // Short but adversarial: live faults on, small request budget.
        parsed.config.requests = parsed.config.requests.min(150);
        if parsed.config.fault_interval == 0 {
            parsed.config.fault_interval = 50_000;
        }
    }
    Ok(parsed)
}

/// Builds the JSON object of one serve run. The key order is the schema of
/// a run object in `BENCH_serve.json`; every value is deterministic per
/// seed (the scenario runs in virtual time).
#[must_use]
pub fn report_json(r: &ServeReport) -> Value {
    let q = |x: f64| Value::from(r.latency.quantile(x).unwrap_or(0));
    let tenants = r.tenants.iter().map(|t| {
        Value::obj([
            ("slot", t.slot.into()),
            ("state", t.state.into()),
            ("served", t.served.into()),
            ("failed", t.failed.into()),
            ("shed", t.shed.into()),
            ("respawns", t.respawns.into()),
            ("respawns_denied", t.respawns_denied.into()),
            ("breaker_opens", t.breaker_opens.into()),
        ])
    });
    Value::obj([
        ("offered", r.offered.into()),
        ("served", r.served.into()),
        ("failed", r.failed.into()),
        ("shed", r.shed.into()),
        ("shed_deadline", r.shed_deadline.into()),
        ("accounting_holds", r.accounting_holds().into()),
        ("rps_per_mcycle", r.rps_per_mcycle().into()),
        ("latency_p50_cycles", q(0.5)),
        ("latency_p90_cycles", q(0.9)),
        ("latency_p99_cycles", q(0.99)),
        ("latency_mean_cycles", r.latency.mean().into()),
        ("faults_injected", r.faults_injected.into()),
        ("recoveries", r.recoveries.into()),
        ("respawns", r.respawns.into()),
        ("respawns_denied", r.respawns_denied.into()),
        ("frontend_respawns", r.frontend_respawns.into()),
        ("cold_restarts", r.cold_restarts.into()),
        ("micro_reboots", r.micro_reboots.into()),
        ("micro_reboot_mismatches", r.micro_reboot_mismatches.into()),
        ("breaker_opens", r.breaker_opens.into()),
        ("terminal_tenants", r.terminal_tenants.into()),
        ("cycles", r.cycles.into()),
        ("aborted", r.aborted.into()),
        ("latency_count", r.latency.count().into()),
        ("tenants", Value::arr(tenants)),
    ])
}

/// The per-run gate of a serve run: it completed, the accounting identity
/// holds, every tenant ends recovered or explicitly quarantined, the warm
/// image passed every micro-reboot integrity check, something was served,
/// and an armed fault injector actually fired.
///
/// # Errors
///
/// Names the first invariant the run broke.
pub fn gate(r: &ServeReport, faults_armed: bool) -> Result<(), CliError> {
    let supervision_closed = r.tenants.iter().all(|t| {
        matches!(
            t.state,
            "serving" | "probation" | "restarting" | "breaker-open" | "breaker-open-terminal"
        )
    });
    if r.aborted {
        Err("run aborted at its safety guard".to_owned())
    } else if !r.accounting_holds() {
        Err("accounting identity violated".to_owned())
    } else if !supervision_closed {
        Err("tenant in unknown supervision state".to_owned())
    } else if r.micro_reboot_mismatches > 0 {
        Err("warm image failed integrity check".to_owned())
    } else if r.served == 0 {
        Err("no request was served".to_owned())
    } else if faults_armed && r.faults_injected == 0 {
        Err("fault injector never fired".to_owned())
    } else {
        Ok(())
    }
}

/// Renders a serve report for humans.
#[must_use]
pub fn render_human(report: &ServeReport) -> String {
    let q = |x: f64| report.latency.quantile(x).unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "serve: {} offered = {} served + {} failed + {} shed ({})",
        report.offered,
        report.served,
        report.failed,
        report.shed,
        if report.accounting_holds() {
            "accounting holds"
        } else {
            "ACCOUNTING VIOLATION"
        }
    );
    let _ = writeln!(
        out,
        "  throughput: {:.2} served/Mcycle over {} cycles",
        report.rps_per_mcycle(),
        report.cycles
    );
    let _ = writeln!(
        out,
        "  latency   : p50={} p90={} p99={} cycles (n={})",
        q(0.5),
        q(0.9),
        q(0.99),
        report.latency.count()
    );
    let _ = writeln!(
        out,
        "  faults    : {} injected, {} fail-overs, {} respawns \
         ({} denied), {} frontend respawns, {} micro reboots, {} cold restarts",
        report.faults_injected,
        report.recoveries,
        report.respawns,
        report.respawns_denied,
        report.frontend_respawns,
        report.micro_reboots,
        report.cold_restarts
    );
    if report.shed_deadline > 0 {
        let _ = writeln!(
            out,
            "  deadline  : {} stale request(s) shed at dequeue",
            report.shed_deadline
        );
    }
    let _ = writeln!(
        out,
        "  breakers  : {} opens, {} terminal tenant(s)",
        report.breaker_opens, report.terminal_tenants
    );
    for t in &report.tenants {
        let _ = writeln!(
            out,
            "  tenant {}  : {:<22} served={} failed={} shed={} respawns={}",
            t.slot, t.state, t.served, t.failed, t.shed, t.respawns
        );
    }
    if report.aborted {
        let _ = writeln!(out, "  ABORTED: run stopped at its safety guard");
    }
    out
}

/// Runs the serve scenario.
///
/// # Errors
///
/// Returns flag-parse failures, kernel boot failures, and — in `--smoke`
/// mode — a non-zero exit when the run fails its [`gate`].
pub fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    let args = parse_serve_args(args)?;
    let faults_armed = args.config.fault_interval > 0;
    let report = Supervisor::new(args.config)
        .map_err(|e| format!("serve: kernel boot failed: {e}"))?
        .run();
    let rendered = if args.json {
        report_json(&report).render()
    } else {
        render_human(&report)
    };
    if args.smoke {
        gate(&report, faults_armed).map_err(|e| format!("{rendered}serve --smoke: {e}\n"))?;
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
        let out = cmd_serve(&s(&["--smoke", "--seed", "9"])).expect("smoke passes");
        assert!(out.contains("accounting holds"), "{out}");
        assert!(out.contains("faults"), "{out}");
    }

    #[test]
    fn json_output_is_machine_readable() {
        let out = cmd_serve(&s(&[
            "--json",
            "--requests",
            "60",
            "--faults",
            "60000",
            "--seed",
            "4",
        ]))
        .expect("serve runs");
        assert!(out.contains("\"accounting_holds\": true"), "{out}");
        assert_eq!(find_number(&out, "offered"), Some(60.0), "{out}");
        assert!(find_number(&out, "latency_p99_cycles").is_some(), "{out}");
        assert!(find_number(&out, "latency_count").is_some(), "{out}");
    }

    /// `serve --json` is a `BENCH_serve.json` run object: the committed
    /// artifact's run keys are a prefix of the CLI's, in the same order.
    #[test]
    fn json_keys_follow_the_bench_schema() {
        let bench = include_str!("../../../BENCH_serve.json");
        let run_keys = first_run_keys(bench);
        assert!(run_keys.contains(&"latency_p99_cycles"), "{run_keys:?}");
        let out = cmd_serve(&s(&["--json", "--requests", "40", "--seed", "3"])).unwrap();
        let keys = object_keys(&out, 1);
        assert!(keys.starts_with(&run_keys), "{keys:?} vs {run_keys:?}");
    }

    #[test]
    fn gate_rejects_a_broken_run() {
        let mut report = Supervisor::new(ServeConfig {
            requests: 40,
            ..ServeConfig::default()
        })
        .unwrap()
        .run();
        assert_eq!(gate(&report, false), Ok(()));
        assert!(gate(&report, true).unwrap_err().contains("never fired"));
        report.micro_reboot_mismatches = 1;
        assert!(gate(&report, false)
            .unwrap_err()
            .contains("warm image failed integrity check"));
        report.served += 1;
        assert!(gate(&report, false).unwrap_err().contains("accounting"));
    }

    #[test]
    fn bad_flags_are_reported() {
        assert!(cmd_serve(&s(&["--bogus"])).is_err());
        assert!(cmd_serve(&s(&["--tenants"])).is_err());
        assert!(cmd_serve(&s(&["--tenants", "lots"])).is_err());
        assert!(cmd_serve(&s(&["--config", "yolo"])).is_err());
    }

    /// Seed stability: the serve scenario runs entirely in virtual time,
    /// so the full JSON body (latency quantiles included) is byte-identical
    /// for the same seed and differs for another.
    #[test]
    fn same_seed_renders_identical_json() {
        let args = |seed: &str| {
            s(&[
                "--json",
                "--requests",
                "80",
                "--faults",
                "40000",
                "--seed",
                seed,
            ])
        };
        let a = cmd_serve(&args("21")).expect("serve runs");
        let b = cmd_serve(&args("21")).expect("serve runs");
        assert_eq!(a, b, "serve JSON must be seed-stable");
        let c = cmd_serve(&args("22")).expect("serve runs");
        assert_ne!(a, c, "a different seed must actually change the run");
    }

    #[test]
    fn unprotected_config_is_accepted() {
        let out = cmd_serve(&s(&["--config", "base", "--requests", "40", "--seed", "2"]))
            .expect("base config runs");
        assert!(out.contains("accounting holds"), "{out}");
    }
}
