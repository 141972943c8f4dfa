//! Snapshot-forked fleet benchmark: fork cost, aggregate throughput, and
//! chaos recovery (micro-restore vs cold boot).
//!
//! Runs the scenario of `regvault-cli fleet` three ways — a calm fleet (no
//! chaos), a chaotic fleet recovering by re-forking the warm snapshot
//! (micro-restore), and the same chaotic fleet recovering by full cold
//! boots — and writes `BENCH_fleet.json` at the repository root. Each run
//! object is the deterministic part of the CLI's `fleet --json` report
//! (the host wall-clock numbers are printed, not written) and passes the
//! CLI's per-run gate. On top of that the comparison fails loudly if:
//!
//! * a fork is not at least 10x cheaper than a cold boot (wall clock);
//! * under chaos, micro-restore does not beat cold boot on both recovery
//!   latency (p99 vs p50) and requests served.
//!
//! ```text
//! cargo run --release --bin fleet
//! ```

use std::process::ExitCode;

use regvault_bench::json::Value;
use regvault_bench::write_figure_json;
use regvault_cli::args::parse_env;
use regvault_cli::fleet::{gate, render_human, scenario_json};
use regvault_server::fleet::{run_fleet, FleetConfig, FleetReport};

/// The cross-run gates the single-run CLI cannot check.
fn compare(calm: &FleetReport, micro: &FleetReport, cold: &FleetReport) -> Result<(), String> {
    // Fork cheapness: stamping out an instance must be at least 10x
    // cheaper than cold-booting one (the CoW headline).
    let h = &calm.host;
    if h.fork_speedup() < 10.0 {
        return Err(format!(
            "fork speedup {:.1}x < 10x (fork {:.0} ns, boot {} ns)",
            h.fork_speedup(),
            h.fork_nanos_mean(),
            h.boot_nanos
        ));
    }
    let (m, c) = (&micro.scenario, &cold.scenario);
    let m99 = m.recovery_latency.quantile(0.99).unwrap_or(0);
    let c50 = c.recovery_latency.quantile(0.5).unwrap_or(u64::MAX);
    if m99 >= c50 {
        return Err(format!("micro-restore p99 {m99} >= cold-boot p50 {c50}"));
    }
    if m.served < c.served {
        return Err(format!(
            "micro-restore served {} < cold-boot served {}",
            m.served, c.served
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    parse_env::<()>("fleet", &[], &mut (), 1);
    let (instances, requests) = (64, 48);
    let seed = 0xF1EE_7C0DE;
    let chaos = 8; // mean requests between kills
    let runs = [
        ("calm", 0, true),
        ("chaos_micro_restore", chaos, true),
        ("chaos_cold_boot", chaos, false),
    ];

    let mut doc = vec![
        ("bench", "fleet".into()),
        ("instances", instances.into()),
        ("requests_per_instance", requests.into()),
        ("seed", seed.into()),
        ("chaos_kill_interval", chaos.into()),
    ];
    let mut ok = true;
    let mut reports = Vec::new();
    for (label, chaos_kill_interval, micro_restore) in runs {
        let report = run_fleet(&FleetConfig {
            instances,
            requests_per_instance: requests,
            seed,
            chaos_kill_interval,
            micro_restore,
            ..FleetConfig::default()
        });
        println!("{label}:\n{}", render_human(&report));
        if let Err(e) = gate(&report, chaos_kill_interval > 0) {
            eprintln!("FAIL: {label}: {e}");
            ok = false;
        }
        doc.push((label, scenario_json(&report)));
        reports.push(report);
    }
    if let Err(e) = compare(&reports[0], &reports[1], &reports[2]) {
        eprintln!("FAIL: {e}");
        ok = false;
    }

    write_figure_json("fleet", &Value::obj(doc));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
