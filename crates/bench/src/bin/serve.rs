//! Supervised multi-tenant serve benchmark: sustained request serving
//! under live fault injection.
//!
//! Runs the scenario of `regvault-cli serve` three times under full
//! protection — a fault-free baseline, a faulted run with the seeded
//! injector firing continuously, and the same faulted run with micro-reboot
//! off (every escalation pays the cold-reboot penalty) — and writes
//! `BENCH_serve.json` at the repository root. Each run object is the CLI's
//! `serve --json` report and passes the CLI's per-run gate.
//!
//! ```text
//! cargo run --release --bin serve            # full run, rewrites the JSON
//! cargo run --release --bin serve -- --quick # small run, no JSON rewrite
//! ```

use std::process::ExitCode;

use regvault_bench::json::Value;
use regvault_bench::write_figure_json;
use regvault_cli::args::{parse_env, set, Flag};
use regvault_cli::serve::{gate, render_human, report_json};
use regvault_server::{ServeConfig, Supervisor};

#[rustfmt::skip]
const FLAGS: &[Flag<bool>] =
    &[Flag::switch("--quick", "small run, no BENCH_serve.json rewrite", |q, _| set(q, true))];

fn main() -> ExitCode {
    let mut quick = false;
    parse_env("serve", FLAGS, &mut quick, 1);
    let (requests, fault_interval) = if quick {
        (200, 50_000)
    } else {
        (2_000, 30_000)
    };
    let seed = 0xC0FF_EE00;
    let runs = [
        ("baseline", 0, true),
        ("under_faults", fault_interval, true),
        ("under_faults_cold_respawn", fault_interval, false),
    ];

    let mut doc = vec![
        ("bench", "serve".into()),
        ("requests", requests.into()),
        ("tenants", 4u64.into()),
        ("seed", seed.into()),
        ("fault_interval_cycles", fault_interval.into()),
    ];
    let mut ok = true;
    for (label, fault_interval, micro_reboot) in runs {
        let report = Supervisor::new(ServeConfig {
            requests,
            seed,
            fault_interval,
            micro_reboot,
            ..ServeConfig::default()
        })
        .expect("kernel boot")
        .run();
        println!("{label}:\n{}", render_human(&report));
        if let Err(e) = gate(&report, fault_interval > 0) {
            eprintln!("FAIL: {label}: {e}");
            ok = false;
        }
        doc.push((label, report_json(&report)));
    }

    if quick {
        println!("--quick: skipping BENCH_serve.json rewrite");
    } else {
        write_figure_json("serve", &Value::obj(doc));
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
