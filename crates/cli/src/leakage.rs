//! The `leakage` subcommand: run the ciphertext side-channel campaign
//! over the workload corpus (plus the supervised serve scenario) and
//! report dictionary collisions with the nonce-diversified rekey
//! mitigation off vs on.

use std::fmt::Write as _;

use regvault_attacks::leakage::{
    cip_frame_windows, measure_scenario, trap_storm_scenario, GuestScenario, LeakageReport,
    ScenarioLeakage,
};
use regvault_attacks::oracle::{CollisionReport, MemOracle};
use regvault_server::{ServeConfig, Supervisor};
use regvault_workloads::{lmbench::Lmbench, spec::Spec, unixbench::UnixBench, Workload};

use crate::args::{self, num, set, Flag};
use crate::json::Value;
use crate::CliError;

/// Default campaign seed: `leakage --json` with it reproduces the committed
/// `BENCH_leakage.json` byte-for-byte.
pub const DEFAULT_SEED: u64 = 0x5EC7_0C11;

/// Parsed `leakage` arguments.
#[derive(Debug, Clone)]
pub struct LeakageArgs {
    /// Campaign seed.
    pub seed: u64,
    /// Emit machine-readable JSON.
    pub json: bool,
    /// Smoke mode: a trimmed corpus (the [`gate`] applies either way).
    pub smoke: bool,
}

/// The `leakage` flags.
#[rustfmt::skip]
pub(crate) const FLAGS: &[Flag<LeakageArgs>] = &[
    Flag::value("--seed", "S", "campaign seed", |a, v| set(&mut a.seed, num(v)?)),
    Flag::switch("--json", "machine-readable JSON", |a, _| set(&mut a.json, true)),
    Flag::switch("--smoke", "trimmed corpus (the 10x gate applies either way)",
        |a, _| set(&mut a.smoke, true)),
];

/// Parses `leakage` flags.
///
/// # Errors
///
/// Describes the offending flag or value.
pub fn parse_leakage_args(args: &[String]) -> Result<LeakageArgs, CliError> {
    let mut parsed = LeakageArgs {
        seed: DEFAULT_SEED,
        json: false,
        smoke: false,
    };
    args::parse("leakage", FLAGS, args, &mut parsed, 0)?;
    Ok(parsed)
}

fn workload_scenario(workload: &dyn Workload) -> GuestScenario {
    let (image, entry) = workload.program();
    GuestScenario::new(workload.name(), image, entry)
}

/// The guest corpus: the synthetic trap storm plus (full mode) every
/// UnixBench/LMbench/SPEC workload.
#[must_use]
pub fn corpus(smoke: bool) -> Vec<GuestScenario> {
    let mut scenarios = vec![trap_storm_scenario()];
    if smoke {
        scenarios.push(workload_scenario(&UnixBench::Syscall));
        scenarios.push(workload_scenario(&UnixBench::Context1));
    } else {
        for w in UnixBench::ALL {
            scenarios.push(workload_scenario(&w));
        }
        for w in Lmbench::ALL {
            scenarios.push(workload_scenario(&w));
        }
        for w in Spec::ALL {
            scenarios.push(workload_scenario(&w));
        }
    }
    scenarios
}

/// Runs the supervised serve scenario with the oracle installed, one arm
/// per mitigation setting. Fault injection stays off: a cold restart
/// boots a fresh kernel and would silently drop the oracle mid-run.
///
/// # Errors
///
/// Describes a kernel boot/run failure.
pub fn serve_scenario(seed: u64, smoke: bool) -> Result<ScenarioLeakage, CliError> {
    let arm = |epoch_rekey: bool| -> Result<(CollisionReport, u64), CliError> {
        let cfg = ServeConfig {
            requests: if smoke { 60 } else { 200 },
            fault_interval: 0,
            seed,
            epoch_rekey,
            ..ServeConfig::default()
        };
        let mut supervisor = Supervisor::new(cfg).map_err(|e| format!("serve boot: {e:?}"))?;
        supervisor
            .kernel_mut()
            .machine_mut()
            .install_tracer(Box::new(MemOracle::watching(cip_frame_windows())));
        let report = supervisor.run_instrumented();
        if report.aborted {
            return Err("serve leakage scenario aborted".to_owned());
        }
        let rekeys = supervisor
            .kernel_mut()
            .machine()
            .metrics()
            .get("epoch_rekeys")
            .unwrap_or(0);
        let oracle = supervisor
            .kernel_mut()
            .machine_mut()
            .take_tracer()
            .ok_or("serve run lost the oracle (unexpected cold restart?)")?
            .into_any()
            .downcast::<MemOracle>()
            .map_err(|_| "tracer was not the oracle".to_owned())?;
        Ok((oracle.report(), rekeys))
    };
    let (off, _) = arm(false)?;
    let (on, epoch_rekeys) = arm(true)?;
    Ok(ScenarioLeakage {
        name: "serve".to_owned(),
        off,
        on,
        epoch_rekeys,
    })
}

/// Runs the whole campaign (guest corpus + serve scenario).
///
/// # Errors
///
/// Describes the first scenario failure.
pub fn run_campaign(seed: u64, smoke: bool) -> Result<LeakageReport, CliError> {
    let mut scenarios = Vec::new();
    for scenario in corpus(smoke) {
        scenarios.push(
            measure_scenario(&scenario, seed)
                .map_err(|e| format!("leakage scenario `{}`: {e:?}", scenario.name))?,
        );
    }
    scenarios.push(serve_scenario(seed, smoke)?);
    Ok(LeakageReport { scenarios })
}

fn collisions_json(report: &CollisionReport) -> Value {
    Value::obj([
        ("observations", report.observations.into()),
        ("distinct_pairs", report.distinct_pairs.into()),
        ("collisions", report.collisions.into()),
        ("colliding_pairs", report.colliding_pairs.into()),
        ("rate", report.collision_rate().into()),
    ])
}

/// Builds the campaign report; with the default seed and the full corpus
/// this is `BENCH_leakage.json`.
#[must_use]
pub fn report_json(report: &LeakageReport, seed: u64) -> Value {
    let rows = report.scenarios.iter().map(|row| {
        Value::obj([
            ("name", row.name.as_str().into()),
            ("off", collisions_json(&row.off)),
            ("on", collisions_json(&row.on)),
            ("epoch_rekeys", row.epoch_rekeys.into()),
            ("reduction", row.reduction().into()),
        ])
    });
    Value::obj([
        ("seed", seed.into()),
        ("scenarios", Value::arr(rows)),
        ("total_off_collisions", report.total_off_collisions().into()),
        ("total_on_collisions", report.total_on_collisions().into()),
        ("overall_reduction", report.overall_reduction().into()),
    ])
}

/// The campaign gate: the unmitigated corpus leaks (the oracle sees the
/// side channel), the mitigation cuts collisions at least 10x overall, and
/// some mitigated run actually rekeyed (the knob is live).
///
/// # Errors
///
/// Names the first gate the campaign failed.
pub fn gate(report: &LeakageReport) -> Result<(), CliError> {
    if report.total_off_collisions() == 0 {
        Err("unmitigated corpus shows no collisions — \
             the oracle is not observing the side channel"
            .to_owned())
    } else if report.overall_reduction() < 10.0 {
        Err(format!(
            "mitigation reduction {:.1}x is below the 10x floor (off={} on={})",
            report.overall_reduction(),
            report.total_off_collisions(),
            report.total_on_collisions()
        ))
    } else if report.scenarios.iter().all(|r| r.epoch_rekeys == 0) {
        Err("no mitigated run performed a rekey — the knob is dead".to_owned())
    } else {
        Ok(())
    }
}

fn render_human(report: &LeakageReport, seed: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ciphertext-leakage campaign (seed {seed:#x}, oracle on the interrupt-frame windows)"
    );
    let _ = writeln!(
        out,
        "{:<14} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "scenario", "obs", "coll (off)", "coll (on)", "rekeys", "reduction"
    );
    for row in &report.scenarios {
        let _ = writeln!(
            out,
            "{:<14} {:>12} {:>12} {:>12} {:>12} {:>9.1}x",
            row.name,
            row.off.observations,
            row.off.collisions,
            row.on.collisions,
            row.epoch_rekeys,
            row.reduction()
        );
    }
    let _ = writeln!(
        out,
        "total: {} collisions unmitigated, {} mitigated ({:.1}x reduction)",
        report.total_off_collisions(),
        report.total_on_collisions(),
        report.overall_reduction()
    );
    out
}

/// `leakage [--seed S] [--json] [--smoke]`.
///
/// # Errors
///
/// Flag errors, scenario failures, and a campaign that fails its [`gate`].
pub fn cmd_leakage(args: &[String]) -> Result<String, CliError> {
    let parsed = parse_leakage_args(args)?;
    let report = run_campaign(parsed.seed, parsed.smoke)?;
    gate(&report).map_err(|e| format!("leakage: {e}"))?;
    if parsed.json {
        Ok(report_json(&report, parsed.seed).render())
    } else {
        Ok(render_human(&report, parsed.seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::find_number;

    #[test]
    fn smoke_campaign_passes_its_own_gate() {
        let out = cmd_leakage(&["--smoke".to_owned()]).unwrap();
        assert!(out.contains("trap_storm"));
        assert!(out.contains("serve"));
    }

    #[test]
    fn json_output_is_byte_stable_per_seed() {
        let args = ["--smoke".to_owned(), "--json".to_owned()];
        let a = cmd_leakage(&args).unwrap();
        let b = cmd_leakage(&args).unwrap();
        assert_eq!(a, b);
        assert_eq!(find_number(&a, "seed"), Some(DEFAULT_SEED as f64));
        assert!(find_number(&a, "overall_reduction").unwrap() >= 10.0);
    }

    #[test]
    fn gate_rejects_each_failing_direction() {
        let collisions = |collisions| CollisionReport {
            observations: 100,
            distinct_pairs: 100 - collisions,
            collisions,
            colliding_pairs: collisions,
        };
        let campaign = |off, on, epoch_rekeys| LeakageReport {
            scenarios: vec![ScenarioLeakage {
                name: "s".to_owned(),
                off: collisions(off),
                on: collisions(on),
                epoch_rekeys,
            }],
        };
        assert_eq!(gate(&campaign(50, 0, 3)), Ok(()));
        assert!(gate(&campaign(0, 0, 3))
            .unwrap_err()
            .contains("no collisions"));
        assert!(gate(&campaign(50, 6, 3)).unwrap_err().contains("10x floor"));
        assert!(gate(&campaign(50, 0, 0)).unwrap_err().contains("rekey"));
    }

    #[test]
    fn unknown_flag_is_rejected() {
        assert!(cmd_leakage(&["--bogus".to_owned()]).is_err());
    }
}
