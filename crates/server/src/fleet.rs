//! Snapshot-forked machine fleet: many instances from one warm image.
//!
//! The serve scenario ([`crate::supervisor`]) runs one kernel with N
//! tenant threads; this module asks the orthogonal scale question:
//! how cheaply can we stamp out N *whole machines* from a single warm
//! post-boot snapshot, and how fast do they recover when chaos kills them?
//!
//! The design is the SnapStart/Firecracker shape on top of the CoW page
//! store in `regvault_sim::mem`:
//!
//! * **Warm image** — boot one machine (load the guest handler, program
//!   key registers, provision a data arena, serve one warm-up request)
//!   and snapshot it. The snapshot shares pages with the parent via `Arc`.
//! * **Fork** — [`regvault_sim::Machine::fork_from`] materializes an
//!   instance in O(mapped-page *pointers*): no page contents are copied
//!   until an instance actually writes (copy-on-first-write).
//! * **Chaos** — a seeded schedule kills instances mid-request. Recovery
//!   is either a **micro-restore** (the killed machine is restored in
//!   place from the warm snapshot, which replaces only its dirty pages;
//!   the virtual-time penalty scales with the dirty pages being
//!   discarded) or a **cold boot** (full reassemble + boot + warm-up at a
//!   fixed large penalty), and a restore-integrity check compares the
//!   restored machine's architectural digest against the warm image
//!   before trusting it.
//!
//! Instances are driven across a work-stealing thread pool with
//! positional merge: workers race for instance indices but results land
//! in index-ordered slots, so the merged [`FleetScenario`] is bit-for-bit
//! identical for any worker count. Host wall-clock measurements (boot vs
//! fork nanos, aggregate steps/s) live in a separate [`FleetHostStats`] so
//! the deterministic part can be asserted byte-stable across runs.
//!
//! The accounting identity from the serve scenario carries over fleet
//! wide: offered = served + failed + shed, unconditionally.
//!
//! # Examples
//!
//! ```
//! use regvault_server::fleet::{run_fleet, FleetConfig};
//!
//! let report = run_fleet(&FleetConfig {
//!     instances: 4,
//!     requests_per_instance: 8,
//!     ..FleetConfig::default()
//! });
//! assert!(report.scenario.accounting_holds());
//! assert_eq!(report.scenario.offered, 32);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use regvault_isa::{asm, KeyReg, Reg};
use regvault_metrics::HistogramData;
use regvault_sim::{Machine, MachineConfig, Snapshot};

use crate::loadgen::exponential_gap;
use crate::COLD_RESTART_PENALTY;

/// Guest text base (same convention as the kernel image).
const TEXT_BASE: u64 = 0x8000_0000;
/// Scratch address the handler bounces ciphertext through.
const SCRATCH: u64 = 0x9000;
/// Base of the provisioned data arena (part of the warm image).
const ARENA_BASE: u64 = 0x8010_0000;
/// Arena pages provisioned at boot: makes the warm image carry a
/// realistic page set, so the fork-vs-copy distinction is measurable.
const ARENA_PAGES: u64 = 64;
/// Per-request step budget (watchdog against a wedged guest).
const STEP_BUDGET: u64 = 100_000;
/// Iterations of the encrypt/store/load/decrypt loop per request.
const LOOP_ITERS: u64 = 16;
/// Seed diversifier for the per-instance request/chaos stream.
const FLEET_SEED_MIX: u64 = 0xF1EE_7000;
/// Virtual-cycle cost of a micro-restore, base part (snapshot walk,
/// register/CSR reload).
const MICRO_RESTORE_BASE: u64 = 10_000;
/// Virtual-cycle cost per dirty page discarded by a micro-restore: the
/// O(dirty-pages) term the CoW store buys us.
const MICRO_RESTORE_PER_PAGE: u64 = 200;

/// The request handler every instance runs, once per request.
///
/// The host deposits the payload in `a0` and resets `pc`; the guest runs
/// [`LOOP_ITERS`] rounds of encrypt / store / load / decrypt through key
/// register A (exercising the CLB, the crypto datapath, the store/load
/// path, and — because it is a hot back-edge — the superblock tier), then
/// halts with the final plaintext in `a1`. Round k decrypts back the
/// value it encrypted, so after 16 rounds `a1 = payload + 15`.
const HANDLER_ASM: &str = "li   t1, 0x9000
     li   s0, 0x9000
     li   s2, 16
loop:
     creak a0, a0[3:0], t1
     sd   a0, 0(s0)
     ld   a1, 0(s0)
     crdak a1, a1, t1, [3:0]
     addi a0, a1, 1
     addi s2, s2, -1
     blt  zero, s2, loop
     ebreak";

/// Fleet configuration.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Instances forked from the warm image.
    pub instances: usize,
    /// Requests offered to each instance.
    pub requests_per_instance: u64,
    /// Mean gap between arrivals per instance, in simulated cycles.
    pub mean_interarrival: u64,
    /// Queueing-delay budget in cycles; arrivals that would wait longer
    /// are shed before service. 0 disables shedding.
    pub deadline: u64,
    /// RNG seed (request payloads, arrival gaps, chaos schedule).
    pub seed: u64,
    /// Worker threads; 0 = available parallelism.
    pub workers: usize,
    /// Chaos: mean requests between instance kills. 0 disables chaos.
    pub chaos_kill_interval: u64,
    /// Recovery mode under chaos: `true` restores the killed machine in
    /// place from the warm snapshot (micro-restore: `Machine::restore`
    /// replaces only the pages the instance dirtied and clears only the
    /// decode and superblock entries it filled, then the restored machine
    /// must digest as the warm image), `false` cold-boots a fresh machine.
    pub micro_restore: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            instances: 64,
            requests_per_instance: 40,
            mean_interarrival: 4_000,
            deadline: 400_000,
            seed: 0xF1EE_7001,
            workers: 0,
            chaos_kill_interval: 0,
            micro_restore: true,
        }
    }
}

/// The deterministic half of a fleet run: identical for any worker count
/// and any host, byte-for-byte, given the same [`FleetConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetScenario {
    /// Instances run.
    pub instances: u64,
    /// Requests offered fleet-wide.
    pub offered: u64,
    /// Requests served with a validated round-trip result.
    pub served: u64,
    /// Requests lost to kills, guest faults, or bad results.
    pub failed: u64,
    /// Requests shed at the deadline check before service.
    pub shed: u64,
    /// Chaos kills delivered.
    pub kills: u64,
    /// Recoveries via an in-place restore from the warm snapshot.
    pub micro_restores: u64,
    /// Recoveries via full cold boot.
    pub cold_boots: u64,
    /// Micro-restores whose integrity check failed (escalated to cold).
    pub restore_mismatches: u64,
    /// Guest instructions retired fleet-wide.
    pub steps: u64,
    /// Per-instance virtual cycles consumed, summed.
    pub busy_cycles: u64,
    /// End-to-end latency (queueing wait + service) of served requests.
    pub latency: HistogramData,
    /// Virtual-cycle recovery latency per kill.
    pub recovery_latency: HistogramData,
    /// Pages in the warm image.
    pub warm_pages: u64,
    /// Dirty (privately copied) pages per instance at end of run, summed.
    pub dirty_pages_total: u64,
    /// Largest per-instance dirty page count at end of run.
    pub dirty_pages_max: u64,
}

impl FleetScenario {
    /// The accounting identity: every offered request is served, failed,
    /// or shed — never silently dropped, kills included.
    #[must_use]
    pub fn accounting_holds(&self) -> bool {
        self.offered == self.served + self.failed + self.shed
    }

    /// Mean dirty pages per instance — the O(fork) working-set size.
    #[must_use]
    pub fn dirty_pages_mean(&self) -> f64 {
        if self.instances == 0 {
            return 0.0;
        }
        self.dirty_pages_total as f64 / self.instances as f64
    }
}

/// Host-side wall-clock measurements: meaningful on one machine in one
/// run, excluded from determinism assertions.
#[derive(Debug, Clone, Copy)]
pub struct FleetHostStats {
    /// Nanoseconds to cold-boot the warm image (assemble, load, program
    /// keys, provision arena, warm-up request, snapshot).
    pub boot_nanos: u64,
    /// Nanoseconds spent in `fork_from` across all instances.
    pub fork_nanos_total: u64,
    /// Instances forked (denominator for the mean).
    pub forks: u64,
    /// Wall time of the parallel serving section.
    pub run_nanos: u64,
    /// Worker threads actually used.
    pub workers: usize,
}

impl FleetHostStats {
    /// Mean nanoseconds per fork.
    #[must_use]
    pub fn fork_nanos_mean(&self) -> f64 {
        if self.forks == 0 {
            return 0.0;
        }
        self.fork_nanos_total as f64 / self.forks as f64
    }

    /// Cold-boot-to-fork cost ratio; the fork-cheapness headline. Large
    /// is good: a ratio of 50 means stamping out an instance costs 2% of
    /// booting one.
    #[must_use]
    pub fn fork_speedup(&self) -> f64 {
        let mean = self.fork_nanos_mean();
        if mean <= 0.0 {
            return 0.0;
        }
        self.boot_nanos as f64 / mean
    }
}

/// A complete fleet run: deterministic scenario + host timings.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Deterministic results (seed-stable).
    pub scenario: FleetScenario,
    /// Wall-clock measurements (host-dependent).
    pub host: FleetHostStats,
}

impl FleetReport {
    /// Aggregate guest steps per host second across the parallel section.
    #[must_use]
    pub fn steps_per_sec(&self) -> f64 {
        if self.host.run_nanos == 0 {
            return 0.0;
        }
        self.scenario.steps as f64 / (self.host.run_nanos as f64 / 1e9)
    }
}

/// Per-instance result, merged positionally.
#[derive(Debug, Clone)]
struct InstanceReport {
    served: u64,
    failed: u64,
    shed: u64,
    kills: u64,
    micro_restores: u64,
    cold_boots: u64,
    restore_mismatches: u64,
    steps: u64,
    clock: u64,
    latency: HistogramData,
    recovery_latency: HistogramData,
    dirty_pages: u64,
    fork_nanos: u64,
}

/// The warm snapshot crosses the scope boundary by shared reference, so
/// this is load-bearing for the work-stealing pool below.
const fn assert_sync<T: Sync>() {}
const _: () = assert_sync::<Snapshot>();

/// Cold-boots a fleet instance: assemble the handler, provision the data
/// arena, program the key registers, and serve one warm-up request so the
/// CLB and superblock tier are hot. This is the work a fork *avoids*.
fn boot_instance(seed: u64) -> Machine {
    let program = asm::assemble(HANDLER_ASM).expect("fleet handler assembles");
    let mut machine = Machine::new(MachineConfig {
        seed,
        ..MachineConfig::default()
    });
    machine.load_program(TEXT_BASE, program.bytes());
    machine.memory_mut().map_region(SCRATCH, 4096);
    machine
        .memory_mut()
        .map_region(ARENA_BASE, ARENA_PAGES * 4096);
    // Touch every arena page so the image genuinely carries the data, not
    // just the mapping.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB007_B007);
    for page in 0..ARENA_PAGES {
        let addr = ARENA_BASE + page * 4096;
        machine
            .memory_mut()
            .write_u64(addr, rng.next_u64())
            .expect("arena write");
    }
    for key in [KeyReg::A, KeyReg::B, KeyReg::C, KeyReg::D] {
        machine
            .write_key_register(key, rng.next_u64(), rng.next_u64())
            .expect("software key registers are writable");
    }
    // Warm-up request: validates the image end-to-end and leaves the
    // decode path hot.
    let warmup = 0x5EED;
    machine.hart_mut().set_pc(TEXT_BASE);
    machine.hart_mut().set_reg(Reg::A0, warmup);
    machine
        .run_until_break(STEP_BUDGET)
        .expect("warm-up request completes");
    assert_eq!(
        machine.hart().reg(Reg::A1),
        warmup + (LOOP_ITERS - 1),
        "warm-up round-trip"
    );
    machine
}

/// The fleet's warm image for `seed`: a cold-booted instance, snapshotted.
/// Capture digests it, so every page's hash is already memoised.
#[must_use]
pub fn warm_image(seed: u64) -> Snapshot {
    boot_instance(seed).snapshot()
}

/// Serves one instance's full request stream, including its chaos
/// schedule. Deterministic given (`cfg`, `index`, the warm snapshot).
fn run_instance(index: usize, cfg: &FleetConfig, warm: &Snapshot) -> InstanceReport {
    let mut rng = StdRng::seed_from_u64(
        cfg.seed ^ FLEET_SEED_MIX ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );

    let fork_start = Instant::now();
    let mut machine = Machine::fork_from(warm).expect("fork from warm snapshot");
    let fork_nanos = u64::try_from(fork_start.elapsed().as_nanos()).unwrap_or(u64::MAX);

    let mut r = InstanceReport {
        served: 0,
        failed: 0,
        shed: 0,
        kills: 0,
        micro_restores: 0,
        cold_boots: 0,
        restore_mismatches: 0,
        steps: 0,
        clock: 0,
        latency: HistogramData::default(),
        recovery_latency: HistogramData::default(),
        dirty_pages: 0,
        fork_nanos,
    };

    let mut arrival = 0u64;
    for _ in 0..cfg.requests_per_instance {
        arrival += exponential_gap(&mut rng, cfg.mean_interarrival);
        // The handler encrypts the `[3:0]` byte slice, so the round-trip
        // covers (and zero-extends to) 32 bits; keep the payload clear of
        // the top nibble so `+ LOOP_ITERS` cannot carry past bit 31.
        let payload = rng.next_u64() & 0x0FFF_FFFF;
        let killed = cfg.chaos_kill_interval > 0 && rng.gen_range(0..cfg.chaos_kill_interval) == 0;

        // Open loop: the instance serves one request at a time, so an
        // arrival queues until the instance's virtual clock catches up.
        let start = r.clock.max(arrival);
        let wait = start - arrival;
        if cfg.deadline > 0 && wait > cfg.deadline {
            // Shed before service; the clock does not advance.
            r.shed += 1;
            continue;
        }

        if killed {
            // The in-flight request is lost with the instance.
            r.kills += 1;
            r.failed += 1;
            let dirty = machine.cow_dirty_pages(warm) as u64;
            // Model the crash as real corruption: scribble over the code
            // page and a key register. Under CoW this copies the page
            // privately — sibling instances and the warm image are
            // untouched, which the integrity check below proves.
            let _ = machine
                .memory_mut()
                .write_u64(TEXT_BASE, 0xDEAD_DEAD_DEAD_DEAD);
            let _ = machine.write_key_register(KeyReg::A, 0, 0);

            let penalty = if cfg.micro_restore {
                machine.restore(warm);
                if machine.arch_digest() == warm.digest() {
                    r.micro_restores += 1;
                    MICRO_RESTORE_BASE + MICRO_RESTORE_PER_PAGE * dirty
                } else {
                    // Warm image failed its integrity check: fall back to
                    // a from-scratch boot.
                    r.restore_mismatches += 1;
                    machine = boot_instance(cfg.seed);
                    r.cold_boots += 1;
                    COLD_RESTART_PENALTY
                }
            } else {
                machine = boot_instance(cfg.seed);
                r.cold_boots += 1;
                COLD_RESTART_PENALTY
            };
            r.recovery_latency.record(penalty);
            r.clock = start + penalty;
            continue;
        }

        // Serve: deposit the payload, reset the handler, run to the halt.
        let cycles_before = machine.stats().cycles;
        let steps_before = machine.stats().instret;
        machine.hart_mut().set_pc(TEXT_BASE);
        machine.hart_mut().set_reg(Reg::A0, payload);
        let outcome = machine.run_until_break(STEP_BUDGET);
        let service = machine.stats().cycles - cycles_before;
        r.steps += machine.stats().instret - steps_before;
        r.clock = start + service;

        let expected = payload + (LOOP_ITERS - 1);
        if outcome.is_ok() && machine.hart().reg(Reg::A1) == expected {
            r.served += 1;
            r.latency.record(wait + service);
        } else {
            r.failed += 1;
        }
    }

    r.dirty_pages = machine.cow_dirty_pages(warm) as u64;
    r
}

/// Runs the fleet: warm-boot once, fork `instances` machines, drive them
/// across a work-stealing pool, merge positionally.
///
/// # Panics
///
/// Panics if the warm boot or a fork fails, or if a worker panics — a
/// fleet that cannot account for every instance has no meaningful report.
#[must_use]
pub fn run_fleet(cfg: &FleetConfig) -> FleetReport {
    let boot_start = Instant::now();
    let warm = warm_image(cfg.seed);
    let boot_nanos = u64::try_from(boot_start.elapsed().as_nanos()).unwrap_or(u64::MAX);

    let workers = if cfg.workers == 0 {
        std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
    } else {
        cfg.workers
    }
    .min(cfg.instances.max(1));

    // Work-stealing pool with positional merge: workers race for the next
    // instance index, results land in index-ordered slots, so the merge
    // below is independent of scheduling.
    let slots: Vec<Mutex<Option<InstanceReport>>> =
        (0..cfg.instances).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let run_start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= cfg.instances {
                    break;
                }
                let report = run_instance(i, cfg, &warm);
                *slots[i].lock().expect("slot lock") = Some(report);
            });
        }
    });
    let run_nanos = u64::try_from(run_start.elapsed().as_nanos()).unwrap_or(u64::MAX);

    let mut scenario = FleetScenario {
        instances: cfg.instances as u64,
        offered: cfg.instances as u64 * cfg.requests_per_instance,
        served: 0,
        failed: 0,
        shed: 0,
        kills: 0,
        micro_restores: 0,
        cold_boots: 0,
        restore_mismatches: 0,
        steps: 0,
        busy_cycles: 0,
        latency: HistogramData::default(),
        recovery_latency: HistogramData::default(),
        warm_pages: warm.page_count() as u64,
        dirty_pages_total: 0,
        dirty_pages_max: 0,
    };
    let mut fork_nanos_total = 0u64;
    for slot in &slots {
        let r = slot
            .lock()
            .expect("slot lock")
            .take()
            .expect("every instance reported");
        scenario.served += r.served;
        scenario.failed += r.failed;
        scenario.shed += r.shed;
        scenario.kills += r.kills;
        scenario.micro_restores += r.micro_restores;
        scenario.cold_boots += r.cold_boots;
        scenario.restore_mismatches += r.restore_mismatches;
        scenario.steps += r.steps;
        scenario.busy_cycles += r.clock;
        scenario.latency.merge(&r.latency);
        scenario.recovery_latency.merge(&r.recovery_latency);
        scenario.dirty_pages_total += r.dirty_pages;
        scenario.dirty_pages_max = scenario.dirty_pages_max.max(r.dirty_pages);
        fork_nanos_total = fork_nanos_total.saturating_add(r.fork_nanos);
    }
    assert!(
        scenario.accounting_holds(),
        "fleet accounting identity violated: {scenario:?}"
    );

    FleetReport {
        scenario,
        host: FleetHostStats {
            boot_nanos,
            fork_nanos_total,
            forks: cfg.instances as u64,
            run_nanos,
            workers,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(chaos: u64) -> FleetConfig {
        FleetConfig {
            instances: 6,
            requests_per_instance: 12,
            chaos_kill_interval: chaos,
            seed: 0x00F1_EE77,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn calm_fleet_serves_everything() {
        let report = run_fleet(&small(0));
        let s = &report.scenario;
        assert!(s.accounting_holds());
        assert_eq!(s.offered, 72);
        assert_eq!(s.served, 72, "no chaos, generous deadline: all served");
        assert_eq!(s.kills, 0);
        assert_eq!(s.latency.count(), 72);
        assert!(s.steps > 0);
        assert!(s.warm_pages > ARENA_PAGES, "arena is in the warm image");
    }

    #[test]
    fn chaos_fleet_keeps_the_accounting_identity() {
        let report = run_fleet(&small(4));
        let s = &report.scenario;
        assert!(s.accounting_holds());
        assert!(s.kills > 0, "chaos schedule fired");
        assert_eq!(s.failed, s.kills, "only kills fail requests here");
        assert_eq!(s.micro_restores + s.cold_boots, s.kills);
        assert_eq!(s.restore_mismatches, 0, "warm image passes integrity");
        assert_eq!(s.recovery_latency.count(), s.kills);
        assert!(s.served > 0, "fleet keeps serving through kills");
    }

    #[test]
    fn micro_restore_beats_cold_boot_on_recovery_latency() {
        let micro = run_fleet(&small(4));
        let cold = run_fleet(&FleetConfig {
            micro_restore: false,
            ..small(4)
        });
        assert!(micro.scenario.kills > 0 && cold.scenario.kills > 0);
        assert_eq!(cold.scenario.cold_boots, cold.scenario.kills);
        assert_eq!(micro.scenario.micro_restores, micro.scenario.kills);
        let m99 = micro.scenario.recovery_latency.quantile(0.99).unwrap();
        let c50 = cold.scenario.recovery_latency.quantile(0.5).unwrap();
        assert!(
            m99 < c50,
            "micro p99 {m99} should beat cold p50 {c50} outright"
        );
        // Cheaper recovery frees virtual time for serving: the same load
        // sheds no more under micro-restore than under cold boots.
        assert!(micro.scenario.shed <= cold.scenario.shed);
    }

    #[test]
    fn scenario_is_identical_for_any_worker_count() {
        let base = small(4);
        let one = run_fleet(&FleetConfig { workers: 1, ..base });
        let many = run_fleet(&FleetConfig { workers: 7, ..base });
        assert_eq!(one.scenario, many.scenario);
    }

    #[test]
    fn tight_deadline_sheds_instead_of_queueing() {
        let report = run_fleet(&FleetConfig {
            deadline: 1,
            mean_interarrival: 100,
            ..small(0)
        });
        let s = &report.scenario;
        assert!(s.accounting_holds());
        assert!(s.shed > 0, "1-cycle budget under overload must shed");
        assert!(s.served > 0, "head-of-line requests still make it");
    }

    #[test]
    fn damaged_warm_image_fails_integrity_and_cold_boots() {
        let damaged = crate::damaged_decode(&warm_image(1));
        let r = run_instance(0, &small(4), &damaged);
        assert!(r.kills > 0, "chaos schedule fired");
        assert_eq!(r.restore_mismatches, r.kills);
        assert_eq!(r.cold_boots, r.kills);
        assert_eq!(r.micro_restores, 0);
    }

    #[test]
    fn forked_instances_share_clean_pages_with_each_other() {
        let warm = warm_image(1);
        let a = Machine::fork_from(&warm).unwrap();
        let b = Machine::fork_from(&warm).unwrap();
        let shared = a.memory().shared_pages_with(b.memory());
        assert_eq!(
            shared,
            warm.page_count(),
            "fresh forks share every page of the warm image"
        );
        assert_eq!(a.cow_dirty_pages(&warm), 0);
    }
}
