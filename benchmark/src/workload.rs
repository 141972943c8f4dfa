//! The five workloads: inputs built in setup, one round, and the checks
//! every round's output must pass.

use std::time::Instant;

use regvault_kernel::{Kernel, KernelConfig, KernelError, ProtectionConfig};
use regvault_server::{
    run_fleet, FleetConfig, FleetHostStats, FleetScenario, ServeConfig, ServeReport, Supervisor,
};
use regvault_sim::{Machine, MachineConfig};
use regvault_workloads::{
    lmbench::Lmbench, spec::Spec, unixbench::UnixBench, Workload, STEP_BUDGET, TIMER_INTERVAL,
};

use crate::ledger::{Split, Tally};
use crate::spans::Spans;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 10 SPEC-shaped programs under off, FULL and FULL+rekey: nearly all
    /// `instret` is interpreted guest code.
    SpecUser,
    /// 8 UnixBench and 10 LMbench guests under off, FULL and FULL+rekey:
    /// nearly all `instret` is modelled kernel work with crypto.
    SyscallKernel,
    /// A supervised 4-tenant server under a fault every ~30k instructions.
    ServeFaults,
    /// 64 snapshot-forked instances serving without chaos.
    FleetCalm,
    /// The same fleet with one kill in every 8 requests and micro-restore.
    FleetChaos,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 5] = [
        Kind::SpecUser,
        Kind::SyscallKernel,
        Kind::ServeFaults,
        Kind::FleetCalm,
        Kind::FleetChaos,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::SpecUser => "spec-user",
            Kind::SyscallKernel => "syscall-kernel",
            Kind::ServeFaults => "serve-faults",
            Kind::FleetCalm => "fleet-calm",
            Kind::FleetChaos => "fleet-chaos",
        }
    }

    /// The workload called `name`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// Rounds whose counts form the deterministic section. A run always
    /// completes them, however short its time budget, so the section is a
    /// function of the seed alone; the counts are sized so that their
    /// spread across seeds stays well inside the metrics' bounds.
    #[must_use]
    pub fn det_rounds(self) -> u64 {
        match self {
            Kind::SpecUser | Kind::SyscallKernel => 4,
            Kind::ServeFaults => 128,
            Kind::FleetCalm => 64,
            Kind::FleetChaos => 48,
        }
    }
}

/// Requests the serve workload offers per round.
pub const SERVE_REQUESTS: u64 = 2_000;
/// Instances in a fleet round.
pub const FLEET_INSTANCES: usize = 64;
/// Requests per fleet instance.
pub const FLEET_REQUESTS: u64 = 48;

/// The protection configurations every suite guest runs under: off, FULL,
/// and FULL with the epoch-rekey (nonce-diversified) mitigation.
pub const CONFIGS: [&str; 3] = ["off", "full", "rekey"];

/// One suite guest with its image and expected result, built in setup.
#[derive(Debug, Clone)]
pub struct Guest {
    /// `spec`, `unixbench` or `lmbench`.
    pub suite: &'static str,
    /// Program name.
    pub name: &'static str,
    /// Guest image.
    pub image: Vec<u8>,
    /// Entry offset in the image.
    pub entry: u64,
    /// `a0` the guest must exit with (`Workload::expected`).
    pub expected: u64,
}

/// A workload's inputs, built once in setup.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload.
    pub kind: Kind,
    /// Suite guests; empty for the serve and fleet workloads.
    pub guests: Vec<Guest>,
}

/// Host time set-up spent building inputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Compiling (SPEC) or assembling (UnixBench, LMbench) guest images.
    pub build_ns: u64,
    /// Computing expected results (the SPEC pure-Rust references).
    pub reference_ns: u64,
}

fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn guest(suite: &'static str, workload: &dyn Workload, times: &mut SetupTimes) -> Guest {
    let start = Instant::now();
    let (image, entry) = workload.program();
    times.build_ns += nanos_since(start);
    let start = Instant::now();
    let expected = workload.expected().expect("every suite guest self-checks");
    times.reference_ns += nanos_since(start);
    Guest {
        suite,
        name: workload.name(),
        image,
        entry,
        expected,
    }
}

/// Builds `kind`'s inputs: guest images and their expected results.
#[must_use]
pub fn prepare(kind: Kind) -> (Inputs, SetupTimes) {
    let mut times = SetupTimes::default();
    let mut guests = Vec::new();
    match kind {
        Kind::SpecUser => {
            for program in Spec::ALL {
                guests.push(guest("spec", &program, &mut times));
            }
        }
        Kind::SyscallKernel => {
            for item in UnixBench::ALL {
                guests.push(guest("unixbench", &item, &mut times));
            }
            for probe in Lmbench::ALL {
                guests.push(guest("lmbench", &probe, &mut times));
            }
        }
        Kind::ServeFaults | Kind::FleetCalm | Kind::FleetChaos => {}
    }
    (Inputs { kind, guests }, times)
}

/// The kernel configuration a suite guest boots under `config`.
#[must_use]
pub fn kernel_config(config: &str, seed: u64) -> KernelConfig {
    KernelConfig {
        protection: if config == "off" {
            ProtectionConfig::off()
        } else {
            ProtectionConfig::full()
        },
        machine: MachineConfig {
            clb_entries: 8,
            seed,
            epoch_rekey: config == "rekey",
            ..MachineConfig::default()
        },
        timer_interval: Some(TIMER_INTERVAL),
    }
}

/// The serve workload's configuration for one round.
#[must_use]
pub fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        tenants: 4,
        requests: SERVE_REQUESTS,
        mean_interarrival: 30_000,
        seed,
        fault_interval: 30_000,
        micro_reboot: true,
        ..ServeConfig::default()
    }
}

/// The fleet workloads' configuration for one round.
#[must_use]
pub fn fleet_config(chaos: bool, seed: u64) -> FleetConfig {
    FleetConfig {
        instances: FLEET_INSTANCES,
        requests_per_instance: FLEET_REQUESTS,
        mean_interarrival: 4_000,
        seed,
        workers: 1,
        chaos_kill_interval: if chaos { 8 } else { 0 },
        micro_restore: true,
        ..FleetConfig::default()
    }
}

/// What one round produced.
#[derive(Debug, Clone)]
pub struct RoundOut {
    /// Deterministic counters.
    pub tally: Tally,
    /// The fleet's own host timings (fleet workloads only).
    pub fleet_host: Option<FleetHostStats>,
}

/// Runs one round of `inputs.kind` with `seed`, recording spans into
/// `spans`. `tier` switches the superblock tier of every suite guest's
/// machine (the serve and fleet workloads build their machines inside the
/// program and always run with it on).
pub fn run_round(inputs: &Inputs, seed: u64, tier: bool, spans: &mut Spans) -> RoundOut {
    let mut tally = Tally::default();
    tally.add("rounds", 1);
    let mut fleet_host = None;
    match inputs.kind {
        Kind::SpecUser | Kind::SyscallKernel => {
            suite_round(&inputs.guests, seed, tier, spans, &mut tally);
        }
        Kind::ServeFaults => serve_round(seed, spans, &mut tally),
        Kind::FleetCalm => fleet_host = Some(fleet_round(false, seed, spans, &mut tally)),
        Kind::FleetChaos => fleet_host = Some(fleet_round(true, seed, spans, &mut tally)),
    }
    RoundOut { tally, fleet_host }
}

fn suite_round(guests: &[Guest], seed: u64, tier: bool, spans: &mut Spans, t: &mut Tally) {
    for guest in guests {
        for config in CONFIGS {
            t.add("ops", 1);
            let booted = spans.time("kernel", "boot", guest.name, || {
                Kernel::boot(kernel_config(config, seed))
            });
            let Ok(mut kernel) = booted else {
                t.add("check_failures", 1);
                continue;
            };
            kernel.machine_mut().reset_stats();
            kernel.machine_mut().set_superblock_tier(tier);
            let result = spans.time("kernel", "run_user", guest.name, || {
                kernel.run_user(&guest.image, guest.entry, STEP_BUDGET)
            });
            spans.time("bench", "check", guest.name, || {
                record_guest(t, guest, config, &result, kernel.machine());
                drop(kernel);
            });
        }
    }
}

fn record_guest(
    t: &mut Tally,
    guest: &Guest,
    config: &str,
    result: &Result<u64, KernelError>,
    machine: &Machine,
) {
    if matches!(result, Ok(a0) if *a0 == guest.expected) {
        t.add("served", 1);
    } else {
        t.add("check_failures", 1);
    }
    let cycles = machine.stats().cycles;
    t.add("sim_cycles", cycles);
    t.record("latency", cycles);
    t.add(
        &format!("cycles.{}.{}.{config}", guest.suite, guest.name),
        cycles,
    );
    let clb = machine.engine().clb().stats();
    t.add(&format!("clb_hits.{config}"), clb.hits);
    t.add(&format!("clb_misses.{config}"), clb.misses);
    if guest.suite == "unixbench" {
        t.add(&format!("clb_hits.unixbench_{config}"), clb.hits);
        t.add(&format!("clb_misses.unixbench_{config}"), clb.misses);
    }
    record_machine(t, machine);
}

/// Counters read from one machine's public statistics.
fn record_machine(t: &mut Tally, machine: &Machine) {
    let stats = machine.stats();
    let split = Split::of(stats);
    t.add("instret", split.instret);
    t.add("guest_insns", split.guest_insns);
    t.add("modelled_insns", split.modelled_insns);
    t.add("decode_hits", stats.decode_hits);
    let sb = machine.superblock_stats();
    t.add("tier_insns", sb.insns);
    t.add("sb_built", sb.built);
    t.add("sb_side_exits", sb.side_exits);
    t.add("sb_invalidations", sb.invalidations);
    t.add("crypto_ops", stats.encrypts + stats.decrypts);
    let clb = machine.engine().clb().stats();
    t.add("clb_hits", clb.hits);
    t.add("clb_misses", clb.misses);
    t.add("clb_evictions", clb.evictions);
    t.add("clb_invalidations", clb.invalidations);
    let metric = |name: &str| machine.metrics().get(name).unwrap_or(0);
    t.add("epoch_rekeys", metric("epoch_rekeys"));
    t.add("syscalls", metric("sched_syscalls"));
    t.add("context_switches", metric("sched_context_switches"));
    t.add("timer_irqs", stats.timer_interrupts);
}

fn serve_round(seed: u64, spans: &mut Spans, t: &mut Tally) {
    t.add("ops", SERVE_REQUESTS);
    let Ok(mut supervisor) =
        spans.time("server", "new", "", || Supervisor::new(serve_config(seed)))
    else {
        t.add("check_failures", SERVE_REQUESTS);
        return;
    };
    let report = spans.time("server", "run", "", || supervisor.run_instrumented());
    spans.time("bench", "check", "", || {
        if !serve_ok(&report, SERVE_REQUESTS) {
            t.add("check_failures", SERVE_REQUESTS);
        }
        t.add("served", report.served);
        t.add("sim_cycles", report.cycles);
        t.merge_hist("latency", &report.latency);
        for (key, value) in [
            ("serve.failed", report.failed),
            ("serve.shed", report.shed),
            ("serve.shed_deadline", report.shed_deadline),
            ("serve.faults", report.faults_injected),
            ("serve.recoveries", report.recoveries),
            ("serve.respawns", report.respawns),
            ("serve.micro_reboots", report.micro_reboots),
            ("serve.cold_restarts", report.cold_restarts),
            ("serve.breaker_opens", report.breaker_opens),
        ] {
            t.add(key, value);
        }
        // A micro-reboot swaps in the warm image with its counters, so
        // these are the final kernel incarnation's, not the round's.
        record_machine(t, supervisor.kernel_mut().machine());
        drop(supervisor);
    });
}

/// The serve report's own invariants: all `requests` offered and
/// accounted for, no aborted run, no warm image that failed its digest,
/// and one latency sample per served request.
#[must_use]
pub fn serve_ok(report: &ServeReport, requests: u64) -> bool {
    report.offered == requests
        && report.accounting_holds()
        && !report.aborted
        && report.micro_reboot_mismatches == 0
        && report.latency.count() == report.served
}

fn fleet_round(chaos: bool, seed: u64, spans: &mut Spans, t: &mut Tally) -> FleetHostStats {
    let report = spans.time("server", "fleet", "", || {
        run_fleet(&fleet_config(chaos, seed))
    });
    spans.time("bench", "check", "", || {
        let s = &report.scenario;
        t.add("ops", s.offered);
        if !fleet_ok(s, chaos) {
            t.add("check_failures", s.offered);
        }
        t.add("served", s.served);
        t.add("sim_cycles", s.busy_cycles);
        // Fleet instances are bare machines with no kernel, so every
        // retired instruction is interpreted guest code.
        t.add("instret", s.steps);
        t.add("guest_insns", s.steps);
        t.merge_hist("latency", &s.latency);
        t.merge_hist("recovery", &s.recovery_latency);
        for (key, value) in [
            ("fleet.failed", s.failed),
            ("fleet.shed", s.shed),
            ("fleet.kills", s.kills),
            ("fleet.micro_restores", s.micro_restores),
            ("fleet.restore_mismatches", s.restore_mismatches),
            ("fleet.dirty_pages", s.dirty_pages_total),
            ("fleet.instances", s.instances),
            ("fleet.warm_pages", s.warm_pages),
        ] {
            t.add(key, value);
        }
    });
    report.host
}

/// The fleet scenario's invariants: the accounting identity, every kill
/// recovered by a micro-restore that passed its digest check, kills as the
/// only failures, and one latency sample per served request and per kill.
#[must_use]
pub fn fleet_ok(s: &FleetScenario, chaos: bool) -> bool {
    s.offered == FLEET_INSTANCES as u64 * FLEET_REQUESTS
        && s.accounting_holds()
        && s.restore_mismatches == 0
        && s.cold_boots == 0
        && s.micro_restores == s.kills
        && s.failed == s.kills
        && s.recovery_latency.count() == s.kills
        && s.latency.count() == s.served
        && chaos == (s.kills > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_suite() -> Inputs {
        let (mut inputs, _) = prepare(Kind::SyscallKernel);
        inputs
            .guests
            .retain(|g| matches!(g.name, "syscall" | "null"));
        assert_eq!(inputs.guests.len(), 2);
        inputs
    }

    #[test]
    fn suite_gate_passes_correct_guests_and_fails_a_corrupted_expectation() {
        let mut inputs = short_suite();
        let clean = run_round(&inputs, 3, true, &mut Spans::new(false)).tally;
        assert_eq!(clean.get("ops"), 6);
        assert_eq!(clean.get("served"), 6);
        assert_eq!(clean.get("check_failures"), 0);

        inputs.guests[1].expected ^= 1;
        let corrupted = run_round(&inputs, 3, true, &mut Spans::new(false)).tally;
        assert_eq!(corrupted.get("check_failures"), CONFIGS.len() as u64);
        assert_eq!(corrupted.get("served"), 3);
    }

    #[test]
    fn tier_off_changes_no_architectural_count() {
        let inputs = short_suite();
        let on = run_round(&inputs, 5, true, &mut Spans::new(false)).tally;
        let off = run_round(&inputs, 5, false, &mut Spans::new(false)).tally;
        assert_eq!(off.get("tier_insns"), 0);
        assert_eq!(on.get("guest_insns"), off.get("guest_insns"));
        assert_eq!(on.get("sim_cycles"), off.get("sim_cycles"));
        assert_eq!(on.get("clb_hits"), off.get("clb_hits"));
    }

    #[test]
    fn serve_gate_fails_a_broken_accounting_identity() {
        let mut report = Supervisor::new(ServeConfig {
            requests: 200,
            ..serve_config(9)
        })
        .expect("boot")
        .run();
        assert!(serve_ok(&report, 200));
        assert!(!serve_ok(&report, 201));
        report.served += 1;
        assert!(!serve_ok(&report, 200));
    }

    #[test]
    fn fleet_gate_fails_a_restore_mismatch_and_unexplained_failures() {
        let report = run_fleet(&fleet_config(true, 4));
        let good = report.scenario;
        assert!(fleet_ok(&good, true));
        assert!(!fleet_ok(&good, false), "chaos that never killed is caught");
        let mismatch = FleetScenario {
            restore_mismatches: 1,
            ..good.clone()
        };
        assert!(!fleet_ok(&mismatch, true));
        let lost = FleetScenario {
            failed: good.failed + 1,
            served: good.served - 1,
            ..good
        };
        assert!(!fleet_ok(&lost, true));
    }
}
