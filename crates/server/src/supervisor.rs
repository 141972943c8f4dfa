//! The fail-fast supervisor: sustained request serving under live faults.
//!
//! The supervisor binds the pieces together into a server-class scenario:
//!
//! * a **frontend** thread (the kernel's init thread, respawned on loss)
//!   that accepts arrivals from the open-loop [`crate::loadgen`] stream and
//!   forwards them over per-tenant request pipes;
//! * N **tenant** threads, each serving [`crate::protocol`] frames read
//!   from its request pipe — parse, execute one protected-subsystem op
//!   (cred, SELinux, VFS, keyring), respond over its response pipe;
//! * a seeded **fault injector** that keeps exactly one pending
//!   [`FaultPlan`] fault armed against live kernel state (cred words, CIP
//!   frames, CLB entries, key registers) so corruption lands *while*
//!   requests are in flight;
//! * the **supervision loop** itself: faulted tenants are quarantined by
//!   the kernel ([`Kernel::fail_over`]) and mapped to lifecycle
//!   transitions ([`Tenant::on_fault`]) — bounded-backoff respawns,
//!   circuit breakers, and explicit load shedding;
//! * **micro-reboot recovery**: systemic corruption that previously
//!   forced a cold kernel reboot is instead cleared by restoring the
//!   kernel in place from a warm post-boot [`KernelImage`]
//!   ([`Kernel::restore`] replaces only the pages written since), gated on
//!   the image's whole-kernel digest (machine and host-side state); a
//!   mismatch escalates to a true cold restart;
//! * **deadline-aware admission control**: at dequeue, requests whose
//!   queueing delay already exceeds a p99-derived budget are shed
//!   explicitly, so fault storms degrade into bounded-latency service of
//!   fresh arrivals instead of queue collapse.
//!
//! The load is *open-loop*: arrivals keep coming whether or not tenants
//! keep up, so every offered request must end in exactly one of three
//! explicit outcomes — served, failed, or shed. [`ServeReport::accounting_holds`]
//! checks that identity; there is no code path that drops a request
//! silently.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use regvault_kernel::cred::{EGID_OFFSET, EUID_OFFSET, GID_OFFSET, UID_OFFSET};
use regvault_kernel::{Kernel, KernelConfig, KernelError, KernelImage, ProtectionConfig, Sysno};
use regvault_metrics::HistogramData;
use regvault_sim::{FaultKind, FaultPlan, ModelledPath};

use crate::loadgen::{Arrival, LoadGen, LoadGenConfig};
use crate::protocol::{OpCode, Request, Response, Status, FRAME_LEN};
use crate::tenant::{SupervisionPolicy, Tenant, TenantState};
use crate::COLD_RESTART_PENALTY;

/// Base of the DMA scratch window the host uses to stage frames in guest
/// memory (between user text and the user stacks; see
/// `regvault_kernel::layout`).
const SCRATCH_BASE: u64 = 0x3000_0000;
/// Bytes of scratch mapped.
const SCRATCH_LEN: u64 = 0x1_0000;
/// Per-slot scratch stride: request frame + file/crypt landing zones.
const SLOT_STRIDE: u64 = 0x100;
/// Frontend staging area (requests out, responses in, provisioning data).
const FRONT_SCRATCH: u64 = SCRATCH_BASE + 0xF000;
/// Simulated-cycle penalty of a micro-reboot: restoring the kernel in
/// place from the warm post-boot image. The restore replaces only the
/// pages written since capture (O(dirty pages)) instead of a boot +
/// provisioning pass, so the modelled downtime is a small fraction of
/// [`COLD_RESTART_PENALTY`]. It is flat, unlike the fleet's per-dirty-page
/// micro-restore charge.
const MICRO_REBOOT_PENALTY: u64 = 50_000;
/// Latency samples required before the deadline shedder trusts its p99.
/// Below this the estimate is noise and the shedder stays out of the way.
const DEADLINE_MIN_SAMPLES: u64 = 64;
/// [`ModelledPath::Idle`] units charged once at boot to measure the cycles
/// of one unit.
const IDLE_PROBE_UNITS: u64 = 16;

/// Serve-scenario configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Tenant slots (bounded by the thread table: frontend + tenants must
    /// stay at or under `MAX_THREADS`, and respawns need headroom).
    pub tenants: usize,
    /// Total requests to offer.
    pub requests: u64,
    /// Mean arrival gap in simulated cycles.
    pub mean_interarrival: u64,
    /// Seed for both the arrival stream and the fault schedule.
    pub seed: u64,
    /// Mean instructions between injected faults (0 disables injection).
    pub fault_interval: u64,
    /// Per-tenant queue bound; arrivals beyond it are shed.
    pub queue_cap: usize,
    /// Consecutive fail-overs without an intervening served request that
    /// escalate to a cold restart. Thread respawns cannot clear *systemic*
    /// corruption (a poisoned CLB entry or tampered key register poisons
    /// every thread's syscalls); only a reboot can.
    pub escalate_failovers: u32,
    /// Supervision policy (backoff, breaker, probation).
    pub policy: SupervisionPolicy,
    /// Kernel protection configuration.
    pub protection: ProtectionConfig,
    /// Recover escalations by restoring the kernel in place from the warm
    /// post-boot [`KernelImage`] (micro-reboot) instead of a cold reboot.
    /// The image is captured right after first provisioning, sharing every
    /// page copy-on-write; a restore replaces only the pages written
    /// since. A restored kernel that does not digest as the image — or a
    /// second consecutive micro-reboot with no request served in between —
    /// escalates to a cold restart anyway.
    pub micro_reboot: bool,
    /// Deadline-aware admission control: at dequeue, shed any request
    /// whose queueing delay already exceeds
    /// `max(deadline_floor, deadline_factor * p99(latency))`. Under a
    /// fault storm this drops requests that would miss any useful deadline
    /// *before* burning tenant time on them, so fresh arrivals still get
    /// served instead of the whole queue aging past usefulness. `0`
    /// disables the shedder.
    pub deadline_factor: u64,
    /// Lower bound on the deadline budget in cycles, so an excellent p99
    /// (fault-free runs) cannot tighten the deadline into shedding healthy
    /// traffic.
    pub deadline_floor: u64,
    /// Enable nonce-diversified rekey on the supervised machine
    /// ([`regvault_sim::MachineConfig::epoch_rekey`]) — the ciphertext
    /// side-channel mitigation the leakage campaign A/B-tests over this
    /// scenario.
    pub epoch_rekey: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            tenants: 4,
            requests: 1_000,
            mean_interarrival: 30_000,
            seed: 0xC0FF_EE00,
            fault_interval: 0,
            queue_cap: 8,
            escalate_failovers: 6,
            policy: SupervisionPolicy::default(),
            protection: ProtectionConfig::full(),
            micro_reboot: true,
            deadline_factor: 8,
            deadline_floor: 200_000,
            epoch_rekey: false,
        }
    }
}

/// The warm post-boot image micro-reboots restore from: a [`KernelImage`]
/// of the fully provisioned kernel (it carries its own digest) plus the
/// supervisor's slot/thread mappings that go with it.
#[derive(Debug, Clone)]
struct WarmImage {
    image: KernelImage,
    slots: Vec<Option<SlotRes>>,
    frontend_tid: u32,
    tenant_tids: Vec<Option<u32>>,
}

/// Kernel resources provisioned for one tenant slot. The slot (not the
/// thread) owns them: pipes and fds survive a tenant respawn, and only a
/// cold restart re-provisions them.
#[derive(Debug, Clone, Copy)]
struct SlotRes {
    /// Request pipe (frontend writes `req_w`, tenant reads `req_r`).
    req_r: u64,
    req_w: u64,
    /// Response pipe (tenant writes `resp_w`, frontend reads `resp_r`).
    resp_r: u64,
    resp_w: u64,
    /// Open fd on the shared `data` file (per-fd offset).
    file_fd: u64,
    /// Keyring serial for the slot's AES key.
    key_serial: u64,
    /// Guest address the tenant reads request frames into.
    in_addr: u64,
    /// Guest address the tenant stages response frames at.
    out_addr: u64,
}

/// Per-tenant slice of the final report.
#[derive(Debug, Clone)]
pub struct TenantSummary {
    /// Slot index.
    pub slot: usize,
    /// Backing thread at the end of the run, if alive.
    pub tid: Option<u32>,
    /// Final lifecycle state label.
    pub state: &'static str,
    /// Requests served.
    pub served: u64,
    /// Requests failed.
    pub failed: u64,
    /// Arrivals shed.
    pub shed: u64,
    /// Respawns into the slot.
    pub respawns: u64,
    /// Respawns denied (thread table full).
    pub respawns_denied: u64,
    /// Breaker trips.
    pub breaker_opens: u32,
}

/// Outcome of a serve run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Requests offered by the load generator.
    pub offered: u64,
    /// Requests served with a validated response.
    pub served: u64,
    /// Requests that reached a tenant but failed (fault mid-request,
    /// kernel error, or response validation failure).
    pub failed: u64,
    /// Arrivals shed (breaker open, queue full, or deadline exceeded) —
    /// explicit, never silent.
    pub shed: u64,
    /// Of `shed`: requests dropped at dequeue because their queueing delay
    /// had already blown the p99-derived deadline budget.
    pub shed_deadline: u64,
    /// Faults the injector actually fired.
    pub faults_injected: u64,
    /// Successful kernel fail-overs (quarantine + switch).
    pub recoveries: u64,
    /// Tenant respawns performed.
    pub respawns: u64,
    /// Respawns denied by the typed thread-table-full error.
    pub respawns_denied: u64,
    /// Frontend thread replacements.
    pub frontend_respawns: u64,
    /// Full kernel reboots (total-loss recovery path).
    pub cold_restarts: u64,
    /// Micro-reboots: escalations recovered by restoring the warm
    /// post-boot image instead of cold-rebooting.
    pub micro_reboots: u64,
    /// Micro-reboot attempts whose restored kernel failed the warm image's
    /// digest check (machine and host-side state) and escalated to a cold
    /// restart.
    pub micro_reboot_mismatches: u64,
    /// Circuit-breaker trips across all tenants.
    pub breaker_opens: u64,
    /// Tenants left permanently quarantined (terminal breaker).
    pub terminal_tenants: usize,
    /// Virtual cycles the run spanned.
    pub cycles: u64,
    /// End-to-end latency distribution (arrival to validated response).
    pub latency: HistogramData,
    /// Per-tenant breakdown.
    pub tenants: Vec<TenantSummary>,
    /// Final frontend thread id.
    pub frontend_tid: u32,
    /// True if the run hit its safety iteration guard or an unrecoverable
    /// provisioning failure and stopped early.
    pub aborted: bool,
}

impl ServeReport {
    /// The zero-silent-loss identity: every offered request was served,
    /// failed, or shed.
    #[must_use]
    pub fn accounting_holds(&self) -> bool {
        self.offered == self.served + self.failed + self.shed
    }

    /// Validated responses per million simulated cycles.
    #[must_use]
    pub fn rps_per_mcycle(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.served as f64 / (self.cycles as f64 / 1e6)
    }
}

/// Errors fatal to the thread that incurred them: the kernel has already
/// classified these as integrity/control-flow/memory corruption, so the
/// supervisor must fail over. Everything else is a per-request policy
/// error the tenant survives.
fn is_fatal(err: &KernelError) -> bool {
    matches!(
        err,
        KernelError::IntegrityViolation { .. }
            | KernelError::WildJump { .. }
            | KernelError::MemoryFault(_)
            | KernelError::Sim(_)
            | KernelError::Timeout { .. }
    )
}

/// The [`ServeReport`] counts the supervisor accumulates as it runs.
#[derive(Debug, Default)]
struct Counts {
    served: u64,
    failed: u64,
    shed: u64,
    shed_deadline: u64,
    faults_injected: u64,
    recoveries: u64,
    respawns: u64,
    respawns_denied: u64,
    frontend_respawns: u64,
    cold_restarts: u64,
    micro_reboots: u64,
    micro_reboot_mismatches: u64,
    latency: HistogramData,
}

/// The supervisor: owns the kernel, the load stream, the fault injector,
/// and all tenant lifecycle state.
pub struct Supervisor {
    cfg: ServeConfig,
    kernel: Kernel,
    loadgen: LoadGen,
    fault_rng: StdRng,
    tenants: Vec<Tenant>,
    slots: Vec<Option<SlotRes>>,
    queues: Vec<VecDeque<Arrival>>,
    frontend_tid: u32,
    /// Virtual-time offset accumulated across cold restarts, so the clock
    /// stays monotone even though a fresh machine starts at cycle zero.
    cycle_base: u64,
    /// Measured cycles per [`ModelledPath::Idle`] unit (cost model
    /// dependent).
    idle_cost: u64,
    /// Supervisor-owned counts: they survive kernel cold restarts.
    counts: Counts,
    rr_cursor: usize,
    /// Fail-overs since the last successfully served request; crossing
    /// [`ServeConfig::escalate_failovers`] forces a restart (micro or cold).
    failover_streak: u32,
    /// Consecutive micro-reboots without an intervening served request.
    /// Two in a row means the warm image is not clearing the problem —
    /// escalate to a true cold restart (fresh machine, fresh master key).
    micro_streak: u32,
    /// Warm post-boot image captured after first provisioning (before any
    /// fault is armed), if micro-reboot recovery is enabled.
    warm: Option<WarmImage>,
    fatal: bool,
}

impl Supervisor {
    /// Diversifier for the fault-selection stream (decorrelated from the
    /// arrival stream, which mixes its own constant into the same seed).
    const FAULT_SEED_MIX: u64 = 0xFA17_0B5E;

    /// Boots a kernel and builds the supervision state. Provisioning
    /// happens lazily at the start of [`Supervisor::run`].
    ///
    /// # Errors
    ///
    /// Propagates kernel boot failures.
    pub fn new(cfg: ServeConfig) -> Result<Self, KernelError> {
        let tenants = cfg.tenants.clamp(1, 6);
        let cfg = ServeConfig { tenants, ..cfg };
        let kernel = Self::boot_kernel(&cfg, 0)?;
        let loadgen = LoadGen::new(
            LoadGenConfig {
                mean_interarrival: cfg.mean_interarrival,
                total: cfg.requests,
                tenants: cfg.tenants,
                seed: cfg.seed,
            },
            0,
        );
        Ok(Self {
            tenants: (0..cfg.tenants)
                .map(|s| Tenant::new(s, &cfg.policy))
                .collect(),
            slots: vec![None; cfg.tenants],
            queues: (0..cfg.tenants).map(|_| VecDeque::new()).collect(),
            frontend_tid: kernel.current_tid(),
            cycle_base: 0,
            idle_cost: 1,
            kernel,
            loadgen,
            fault_rng: StdRng::seed_from_u64(cfg.seed ^ Self::FAULT_SEED_MIX),
            cfg,
            counts: Counts::default(),
            rr_cursor: 0,
            failover_streak: 0,
            micro_streak: 0,
            warm: None,
            fatal: false,
        })
    }

    fn boot_kernel(cfg: &ServeConfig, generation: u64) -> Result<Kernel, KernelError> {
        let mut kcfg = KernelConfig {
            protection: cfg.protection,
            ..KernelConfig::default()
        };
        // Distinct master key per boot generation, same determinism per seed.
        kcfg.machine.seed = cfg.seed ^ generation.rotate_left(17);
        kcfg.machine.epoch_rekey = cfg.epoch_rekey;
        Kernel::boot(kcfg)
    }

    /// Monotone virtual clock: survives cold restarts via `cycle_base`.
    fn now(&self) -> u64 {
        self.cycle_base + self.kernel.machine().stats().cycles
    }

    /// Mutable access to the supervised kernel — the pre-run
    /// instrumentation hook (the leakage campaign installs its memory
    /// oracle on the machine here). A micro-reboot restores the kernel in
    /// place and keeps an installed tracer; a cold restart boots a fresh
    /// kernel and drops it.
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }

    // ---- provisioning ---------------------------------------------------

    /// Provisions frontend scratch, tenant threads, pipes, fds, and keys on
    /// the current kernel. `initial` distinguishes first boot (tenants
    /// start `Serving`) from a cold restart (tenants re-enter probation).
    fn provision(&mut self, initial: bool) -> Result<(), KernelError> {
        self.kernel
            .machine_mut()
            .memory_mut()
            .map_region(SCRATCH_BASE, SCRATCH_LEN);
        self.frontend_tid = self.kernel.current_tid();

        // Seed the shared data file with a recognizable pattern.
        let pattern: Vec<u8> = (0u8..64).map(|i| i.wrapping_mul(37) ^ 0x5C).collect();
        self.kernel
            .machine_mut()
            .memory_mut()
            .write_slice(FRONT_SCRATCH + 0x40, &pattern);
        self.kernel
            .machine_mut()
            .memory_mut()
            .write_slice(FRONT_SCRATCH, b"data");
        let fd = self
            .kernel
            .dispatch(Sysno::Open as u64, [FRONT_SCRATCH, 4, 0])?;
        self.kernel
            .dispatch(Sysno::Write as u64, [fd, FRONT_SCRATCH + 0x40, 64])?;
        self.kernel.dispatch(Sysno::Close as u64, [fd, 0, 0])?;

        for slot in 0..self.cfg.tenants {
            if self.tenants[slot].is_terminal() {
                // A terminal breaker stays quarantined across reboots.
                self.slots[slot] = None;
                continue;
            }
            let tid = self.kernel.spawn_service_thread()?;
            let req = self.kernel.dispatch(Sysno::Pipe as u64, [0, 0, 0])?;
            let resp = self.kernel.dispatch(Sysno::Pipe as u64, [0, 0, 0])?;
            self.kernel
                .machine_mut()
                .memory_mut()
                .write_slice(FRONT_SCRATCH, b"data");
            let file_fd = self
                .kernel
                .dispatch(Sysno::Open as u64, [FRONT_SCRATCH, 4, 0])?;
            let material: Vec<u8> = (0..16).map(|i| (slot as u8) << 4 | i).collect();
            self.kernel
                .machine_mut()
                .memory_mut()
                .write_slice(FRONT_SCRATCH + 0x20, &material);
            let key_serial = self
                .kernel
                .dispatch(Sysno::AddKey as u64, [FRONT_SCRATCH + 0x20, 0, 0])?;
            let base = SCRATCH_BASE + slot as u64 * SLOT_STRIDE;
            self.slots[slot] = Some(SlotRes {
                req_r: req >> 32,
                req_w: req & 0xFFFF_FFFF,
                resp_r: resp >> 32,
                resp_w: resp & 0xFFFF_FFFF,
                file_fd,
                key_serial,
                in_addr: base,
                out_addr: base + 0x80,
            });
            if initial {
                self.tenants[slot].tid = Some(tid);
                self.tenants[slot].state = TenantState::Serving;
            } else {
                self.tenants[slot].on_respawned(&self.cfg.policy, tid);
                self.counts.respawns += 1;
            }
        }

        // Measure the cycles of one idle unit so idle advancement can hit
        // a target cycle without assuming a cost table.
        let c0 = self.kernel.machine().stats().cycles;
        self.kernel
            .machine_mut()
            .charge_modelled(ModelledPath::Idle, IDLE_PROBE_UNITS);
        self.idle_cost = ((self.kernel.machine().stats().cycles - c0) / IDLE_PROBE_UNITS).max(1);
        Ok(())
    }

    /// Captures the warm post-boot image micro-reboots restore from. Runs
    /// right after first provisioning succeeds and *before* the first
    /// fault is armed, so the image carries no fault plan and a known-good
    /// digest.
    fn capture_warm_image(&mut self) {
        if !self.cfg.micro_reboot {
            return;
        }
        self.warm = Some(WarmImage {
            image: self.kernel.image(),
            slots: self.slots.clone(),
            frontend_tid: self.frontend_tid,
            tenant_tids: self.tenants.iter().map(|t| t.tid).collect(),
        });
    }

    /// Systemic-corruption recovery: micro-reboot from the warm image when
    /// enabled and trustworthy, cold restart otherwise. Every escalation
    /// site funnels through here.
    fn restart_tenancy(&mut self) {
        // Read before a restore rewinds the kernel's cycle counter.
        let failed_at = self.now();
        // Two micro-reboots with no served request in between: the warm
        // image is not clearing the problem, stop retrying it.
        if self.cfg.micro_reboot && self.micro_streak < 2 && self.micro_reboot(failed_at) {
            return;
        }
        self.cold_restart(failed_at);
    }

    /// Restores the kernel in place from the warm post-boot image: bounded
    /// downtime ([`MICRO_REBOOT_PENALTY`] vs [`COLD_RESTART_PENALTY`]), no
    /// re-provisioning, lost work bounded to the in-flight request.
    /// Returns `false` — escalate — if no warm image exists or the restored
    /// kernel fails the image's digest check (the image was damaged; the
    /// kernel now holds that damage, which only a cold restart clears).
    fn micro_reboot(&mut self, failed_at: u64) -> bool {
        let Some(warm) = &self.warm else {
            return false;
        };
        if self.kernel.restore(&warm.image).is_err() {
            self.counts.micro_reboot_mismatches += 1;
            return false;
        }
        self.counts.micro_reboots += 1;
        self.micro_streak += 1;
        self.failover_streak = 0;
        // Keep the virtual clock monotone: after the restore, `now()` lands
        // exactly `MICRO_REBOOT_PENALTY` past the moment of failure.
        let warm_cycles = self.kernel.machine().stats().cycles;
        self.cycle_base = (failed_at + MICRO_REBOOT_PENALTY).saturating_sub(warm_cycles);
        self.frontend_tid = warm.frontend_tid;
        self.slots.clone_from(&warm.slots);
        for (slot, warm_tid) in warm.tenant_tids.iter().enumerate().take(self.cfg.tenants) {
            if self.tenants[slot].is_terminal() {
                // Terminal quarantine survives every flavour of reboot.
                self.slots[slot] = None;
                self.tenants[slot].tid = None;
                continue;
            }
            match *warm_tid {
                Some(tid) => {
                    self.tenants[slot].on_respawned(&self.cfg.policy, tid);
                    self.counts.respawns += 1;
                }
                None => {
                    self.slots[slot] = None;
                    self.tenants[slot].tid = None;
                }
            }
        }
        self.arm_fault();
        true
    }

    /// Total-loss path: reboot the kernel (fresh machine, fresh master
    /// key), charge a realistic downtime penalty to the virtual clock, and
    /// re-provision every non-terminal tenant. Host-side state — queues,
    /// tenant accounting, counts — survives. The downtime runs from
    /// `failed_at`, read before any micro-reboot attempt rewound the kernel.
    fn cold_restart(&mut self, failed_at: u64) {
        self.counts.cold_restarts += 1;
        self.failover_streak = 0;
        self.micro_streak = 0;
        let restarts = self.counts.cold_restarts;
        self.cycle_base = failed_at + COLD_RESTART_PENALTY;
        match Self::boot_kernel(&self.cfg, restarts) {
            Ok(kernel) => self.kernel = kernel,
            Err(_) => {
                self.fatal = true;
                return;
            }
        }
        for slot in self.slots.iter_mut() {
            *slot = None;
        }
        for t in &mut self.tenants {
            t.tid = None;
        }
        if self.provision(false).is_err() {
            self.fatal = true;
        }
        self.arm_fault();
    }

    // ---- fault injection ------------------------------------------------

    /// Arms the next planned fault, replacing any unfired one. Exactly one
    /// fault is pending at a time so `applied` counts are unambiguous.
    fn arm_fault(&mut self) {
        if self.cfg.fault_interval == 0 {
            return;
        }
        let half = (self.cfg.fault_interval / 2).max(1);
        let gap = half + self.fault_rng.gen_range(0..self.cfg.fault_interval.max(1));
        let at = self.kernel.machine().stats().instret + gap;
        let kind = self.pick_fault_kind();
        self.kernel
            .machine_mut()
            .set_fault_plan(FaultPlan::new().at(at, kind));
    }

    /// Counts fired faults and re-arms once the pending fault has landed.
    fn poll_faults(&mut self) {
        if self.cfg.fault_interval == 0 {
            return;
        }
        let fired = self
            .kernel
            .machine()
            .fault_plan()
            .is_some_and(|p| p.pending() == 0);
        if fired {
            let applied = self
                .kernel
                .machine_mut()
                .clear_fault_plan()
                .map_or(0, |p| p.applied().len() as u64);
            self.counts.faults_injected += applied;
            self.arm_fault();
        } else if self.kernel.machine().fault_plan().is_none() {
            self.arm_fault();
        }
    }

    /// Picks a fault aimed at live kernel state. The mix spreads over the
    /// paper's protected data classes: cred words, CIP interrupt frames,
    /// CLB entries, per-thread key registers, and (rarely) the master key —
    /// the catastrophic case that forces a cold restart path to exist.
    fn pick_fault_kind(&mut self) -> FaultKind {
        let mut live: Vec<u32> = vec![self.frontend_tid];
        live.extend(self.tenants.iter().filter_map(|t| t.tid));
        let pick = self.fault_rng.gen_range(0..live.len() as u64) as usize;
        let tid = live[pick];
        let cred = self.kernel.creds.cred_addr(tid);
        let roll = self.fault_rng.gen_range(0..100);
        match roll {
            0..=39 => {
                let fields = [UID_OFFSET, GID_OFFSET, EUID_OFFSET, EGID_OFFSET];
                let field = fields[self.fault_rng.gen_range(0..4) as usize];
                FaultKind::MemBitFlip {
                    addr: cred + field,
                    bit: (self.fault_rng.gen_range(0..64)) as u8,
                }
            }
            40..=59 => FaultKind::MemWrite {
                addr: self.kernel.threads.interrupt_frame_addr(tid)
                    + 8 * self.fault_rng.gen_range(0..8),
                value: self.fault_rng.next_u64(),
            },
            60..=74 => FaultKind::ClbPoison {
                xor: self.fault_rng.next_u64() | 1,
            },
            75..=89 => FaultKind::KeyTamper {
                ksel: (1 + self.fault_rng.gen_range(0..7)) as u8,
                xor_w0: self.fault_rng.next_u64(),
                xor_k0: self.fault_rng.next_u64(),
            },
            90..=96 => {
                let other = live[self.fault_rng.gen_range(0..live.len() as u64) as usize];
                FaultKind::MemSwap {
                    a: cred + EUID_OFFSET,
                    b: self.kernel.creds.cred_addr(other) + EUID_OFFSET,
                }
            }
            _ => FaultKind::KeyTamper {
                ksel: 0,
                xor_w0: self.fault_rng.next_u64() | 1,
                xor_k0: self.fault_rng.next_u64(),
            },
        }
    }

    // ---- request flow ---------------------------------------------------

    /// Routes one arrival: queue it, or shed it with an explicit reason.
    fn route(&mut self, arr: Arrival) {
        let slot = (arr.request.tenant as usize).min(self.cfg.tenants - 1);
        let breaker_open = matches!(self.tenants[slot].state, TenantState::BreakerOpen { .. });
        if breaker_open || self.queues[slot].len() >= self.cfg.queue_cap {
            self.shed_one(slot);
        } else {
            self.queues[slot].push_back(arr);
        }
    }

    fn shed_one(&mut self, slot: usize) {
        self.counts.shed += 1;
        self.tenants[slot].shed = self.tenants[slot].shed.saturating_add(1);
    }

    /// Sheds a slot's whole queue (called when its breaker opens).
    fn shed_queue(&mut self, slot: usize) {
        while self.queues[slot].pop_front().is_some() {
            self.shed_one(slot);
        }
    }

    /// Next slot with a live tenant and queued work, round-robin.
    fn pick_work(&mut self) -> Option<usize> {
        for i in 0..self.cfg.tenants {
            let slot = (self.rr_cursor + i) % self.cfg.tenants;
            if self.tenants[slot].accepts_work() && !self.queues[slot].is_empty() {
                self.rr_cursor = (slot + 1) % self.cfg.tenants;
                return Some(slot);
            }
        }
        None
    }

    /// Deadline budget for queueing delay, derived from the observed p99:
    /// a request that already waited past `max(floor, factor * p99)` will
    /// miss any useful deadline, so serving it only starves fresher work.
    /// `None` until the histogram has enough samples to trust (or when the
    /// shedder is disabled).
    fn deadline_budget(&self) -> Option<u64> {
        if self.cfg.deadline_factor == 0 {
            return None;
        }
        let h = &self.counts.latency;
        if h.count() < DEADLINE_MIN_SAMPLES {
            return None;
        }
        let p99 = h.quantile(0.99)?;
        Some(
            p99.saturating_mul(self.cfg.deadline_factor)
                .max(self.cfg.deadline_floor),
        )
    }

    fn shed_expired(&mut self, slot: usize) {
        self.counts.shed += 1;
        self.counts.shed_deadline += 1;
        self.tenants[slot].shed = self.tenants[slot].shed.saturating_add(1);
    }

    /// Serves the first still-viable request in `slot`'s queue and
    /// accounts the outcome, shedding any queue heads whose deadline
    /// budget has already expired. Fatal kernel errors trigger fail-over.
    fn serve_one(&mut self, slot: usize) {
        let arr = loop {
            let Some(arr) = self.queues[slot].pop_front() else {
                return;
            };
            let expired = self
                .deadline_budget()
                .is_some_and(|budget| self.now().saturating_sub(arr.at) > budget);
            if expired {
                self.shed_expired(slot);
                continue;
            }
            break arr;
        };
        match self.try_process(slot, &arr) {
            Ok(true) => {
                let lat = self.now().saturating_sub(arr.at);
                self.counts.latency.record(lat);
                self.counts.served += 1;
                self.tenants[slot].on_success(&self.cfg.policy);
                self.failover_streak = 0;
                self.micro_streak = 0;
            }
            Ok(false) => {
                self.fail_one(slot);
                self.drain_slot_safe(slot);
            }
            Err(e) if is_fatal(&e) => {
                self.fail_one(slot);
                self.handle_fault();
            }
            Err(_) => {
                // Policy error mid-request (e.g. pipe pressure): the
                // request failed but the tenant is healthy. Clear any
                // half-written frames so the next request starts clean.
                self.fail_one(slot);
                self.drain_slot_safe(slot);
            }
        }
    }

    fn fail_one(&mut self, slot: usize) {
        self.counts.failed += 1;
        self.tenants[slot].failed = self.tenants[slot].failed.saturating_add(1);
    }

    /// One full request round trip. `Ok(true)` means the frontend read
    /// back a response that validates end-to-end against the offered
    /// request; anything else is a failed request.
    fn try_process(&mut self, slot: usize, arr: &Arrival) -> Result<bool, KernelError> {
        let Some(res) = self.slots[slot] else {
            return Ok(false);
        };
        let Some(tid) = self.tenants[slot].tid else {
            return Ok(false);
        };

        // Frontend: stage the frame in guest memory, forward over the pipe.
        self.kernel.switch_thread(self.frontend_tid)?;
        let frame = arr.request.encode();
        self.kernel
            .machine_mut()
            .memory_mut()
            .write_slice(FRONT_SCRATCH, &frame);
        self.kernel
            .machine_mut()
            .charge_modelled(ModelledPath::StageRequest, 1);
        let n = self.kernel.dispatch(
            Sysno::Write as u64,
            [res.req_w, FRONT_SCRATCH, FRAME_LEN as u64],
        )?;
        if n != FRAME_LEN as u64 {
            return Ok(false);
        }

        // Tenant: read, parse, execute, respond.
        self.kernel.switch_thread(tid)?;
        let n = self.kernel.dispatch(
            Sysno::Read as u64,
            [res.req_r, res.in_addr, FRAME_LEN as u64],
        )?;
        if n != FRAME_LEN as u64 {
            return Ok(false);
        }
        self.kernel
            .machine_mut()
            .charge_modelled(ModelledPath::ParseRequest, 1);
        let Ok(bytes) = self
            .kernel
            .machine()
            .memory()
            .read_vec(res.in_addr, FRAME_LEN)
        else {
            return Ok(false);
        };
        let resp = match Request::decode(&bytes) {
            // The tenant answers with what it *read*, not what was offered:
            // end-to-end validation against the offered request happens at
            // the frontend below, so in-flight corruption is caught.
            Some(req) => {
                let (status, value) = match self.execute(&res, &req) {
                    Ok(v) => (Status::Ok, v),
                    Err(e) if is_fatal(&e) => return Err(e),
                    Err(KernelError::PermissionDenied) => (Status::Denied, 0),
                    Err(_) => (Status::Error, 0),
                };
                Response {
                    seq: req.seq,
                    op: req.op,
                    status,
                    value,
                }
            }
            None => Response {
                seq: u32::MAX,
                op: OpCode::Echo,
                status: Status::Error,
                value: 0,
            },
        };
        self.kernel
            .machine_mut()
            .charge_modelled(ModelledPath::FormatResponse, 1);
        self.kernel
            .machine_mut()
            .memory_mut()
            .write_slice(res.out_addr, &resp.encode());
        let n = self.kernel.dispatch(
            Sysno::Write as u64,
            [res.resp_w, res.out_addr, FRAME_LEN as u64],
        )?;
        if n != FRAME_LEN as u64 {
            return Ok(false);
        }

        // Frontend: collect and validate the response.
        self.kernel.switch_thread(self.frontend_tid)?;
        let n = self.kernel.dispatch(
            Sysno::Read as u64,
            [res.resp_r, FRONT_SCRATCH, FRAME_LEN as u64],
        )?;
        if n != FRAME_LEN as u64 {
            return Ok(false);
        }
        let Ok(bytes) = self
            .kernel
            .machine()
            .memory()
            .read_vec(FRONT_SCRATCH, FRAME_LEN)
        else {
            return Ok(false);
        };
        let Some(got) = Response::decode(&bytes) else {
            return Ok(false);
        };
        Ok(got.seq == arr.request.seq
            && got.op == arr.request.op
            && got.status == Status::Ok
            && (arr.request.op != OpCode::Echo || got.value == arr.request.payload))
    }

    /// Executes one decoded request on the current (tenant) thread. Each op
    /// crosses a different protected subsystem so injected faults land on
    /// cred, SELinux, VFS, and keyring paths.
    fn execute(&mut self, res: &SlotRes, req: &Request) -> Result<u64, KernelError> {
        match req.op {
            OpCode::Echo => {
                self.kernel
                    .machine_mut()
                    .charge_modelled(ModelledPath::Echo, 1);
                Ok(req.payload)
            }
            OpCode::Auth => {
                let euid = self.kernel.dispatch(Sysno::Geteuid as u64, [0, 0, 0])?;
                let allowed = self
                    .kernel
                    .dispatch(Sysno::SelinuxCheck as u64, [0, 0, 0])?;
                Ok(euid << 1 | allowed)
            }
            OpCode::FileRead => {
                self.kernel
                    .dispatch(Sysno::Seek as u64, [res.file_fd, req.payload % 56, 0])?;
                let land = res.in_addr + 0x20;
                self.kernel
                    .dispatch(Sysno::Read as u64, [res.file_fd, land, 8])?;
                Ok(self.kernel.machine().memory().read_u64(land).unwrap_or(0))
            }
            OpCode::Crypt => {
                let ct = res.in_addr + 0x40;
                self.kernel
                    .dispatch(Sysno::AesEncrypt as u64, [res.key_serial, res.in_addr, ct])?;
                Ok(self.kernel.machine().memory().read_u64(ct).unwrap_or(0))
            }
        }
    }

    /// Empties a slot's pipes via the frontend so a respawned (or
    /// recovering) tenant never reads a half-written stale frame.
    fn drain_slot(&mut self, slot: usize) -> Result<(), KernelError> {
        let Some(res) = self.slots[slot] else {
            return Ok(());
        };
        self.kernel.switch_thread(self.frontend_tid)?;
        for fd in [res.req_r, res.resp_r] {
            // Bounded by pipe capacity / frame size, with slack.
            for _ in 0..512 {
                let n = self
                    .kernel
                    .dispatch(Sysno::Read as u64, [fd, FRONT_SCRATCH, FRAME_LEN as u64])?;
                if n == 0 {
                    break;
                }
            }
        }
        Ok(())
    }

    fn drain_slot_safe(&mut self, slot: usize) {
        match self.drain_slot(slot) {
            Ok(()) => {}
            Err(e) if is_fatal(&e) => self.handle_fault(),
            Err(_) => {}
        }
    }

    // ---- supervision ----------------------------------------------------

    /// Maps a kernel fail-over onto tenant lifecycle transitions, replacing
    /// the frontend if it was among the casualties.
    fn handle_fault(&mut self) {
        let now = self.now();
        self.failover_streak = self.failover_streak.saturating_add(1);
        if self.failover_streak >= self.cfg.escalate_failovers.max(1) {
            // Fail-overs are not converging: the corruption is systemic
            // (shared state every thread touches), so replacing threads
            // can never clear it. Escalate to a reboot — micro if the
            // warm image is available and trustworthy, cold otherwise.
            self.restart_tenancy();
            return;
        }
        match self.kernel.fail_over() {
            Ok(fo) => {
                self.counts.recoveries += 1;
                let mut frontend_lost = false;
                for tid in &fo.quarantined {
                    if *tid == self.frontend_tid {
                        frontend_lost = true;
                    } else if let Some(slot) = self.slot_by_tid(*tid) {
                        self.tenants[slot].on_fault(&self.cfg.policy, now);
                        if matches!(self.tenants[slot].state, TenantState::BreakerOpen { .. }) {
                            self.shed_queue(slot);
                        }
                    }
                }
                if frontend_lost {
                    // Adopt the fail-over survivor if it isn't a tenant;
                    // otherwise spawn a dedicated replacement.
                    if self.slot_by_tid(fo.current).is_none() {
                        self.frontend_tid = fo.current;
                        self.counts.frontend_respawns += 1;
                    } else {
                        match self.kernel.spawn_service_thread() {
                            Ok(tid) => {
                                self.frontend_tid = tid;
                                self.counts.frontend_respawns += 1;
                            }
                            Err(_) => self.restart_tenancy(),
                        }
                    }
                }
            }
            // No runnable thread survived: total loss, reboot.
            Err(_) => self.restart_tenancy(),
        }
    }

    fn slot_by_tid(&self, tid: u32) -> Option<usize> {
        self.tenants.iter().position(|t| t.tid == Some(tid))
    }

    /// Attempts every respawn whose backoff or breaker cooldown has
    /// elapsed. Returns true if any attempt was made.
    fn handle_due_respawns(&mut self, now: u64) -> bool {
        let mut did = false;
        for slot in 0..self.cfg.tenants {
            if !self.tenants[slot].respawn_due(now) {
                continue;
            }
            did = true;
            match self.kernel.spawn_service_thread() {
                Ok(tid) => {
                    self.tenants[slot].on_respawned(&self.cfg.policy, tid);
                    self.counts.respawns += 1;
                    self.drain_slot_safe(slot);
                }
                Err(KernelError::ThreadTableFull) => {
                    // The typed degradation event: back off and retry
                    // rather than treating exhaustion as a tenant fault.
                    self.tenants[slot].on_respawn_denied(&self.cfg.policy, now);
                    self.counts.respawns_denied += 1;
                }
                Err(e) if is_fatal(&e) => {
                    self.handle_fault();
                }
                Err(_) => {
                    self.tenants[slot].on_respawn_denied(&self.cfg.policy, now);
                    self.counts.respawns_denied += 1;
                }
            }
        }
        did
    }

    /// Burns simulated cycles until `target`, letting planned faults fire
    /// mid-idle exactly as they would mid-request.
    fn idle_advance(&mut self, target: u64) {
        for _ in 0..4096 {
            let now = self.now();
            if now >= target {
                return;
            }
            let want = ((target - now).div_ceil(self.idle_cost)).clamp(1, 50_000);
            self.kernel
                .machine_mut()
                .charge_modelled(ModelledPath::Idle, want);
        }
    }

    /// Earliest future event: next arrival or next respawn deadline.
    fn next_deadline(&self) -> Option<u64> {
        let mut next = self.loadgen.peek_next_at();
        for t in &self.tenants {
            let due = match t.state {
                TenantState::Restarting { until } => Some(until),
                TenantState::BreakerOpen { until } => until,
                _ => None,
            };
            if let Some(d) = due {
                next = Some(next.map_or(d, |n| n.min(d)));
            }
        }
        next
    }

    /// Runs the scenario to completion and reports.
    pub fn run(mut self) -> ServeReport {
        self.run_inner()
    }

    /// Like [`Supervisor::run`] but by reference, so instrumentation
    /// installed through [`Supervisor::kernel_mut`] (a tracer, say) can be
    /// recovered from the machine — along with its metrics — after the
    /// scenario completes.
    pub fn run_instrumented(&mut self) -> ServeReport {
        self.run_inner()
    }

    fn run_inner(&mut self) -> ServeReport {
        let start = self.now();
        let mut aborted = false;
        if self.provision(true).is_err() {
            aborted = true;
        } else {
            // Snapshot the fully provisioned, never-faulted kernel as the
            // micro-reboot restore point.
            self.capture_warm_image();
        }
        self.arm_fault();

        // Safety guard: generous bound on supervision-loop iterations so a
        // pathological schedule can never hang the bench harness.
        let mut guard = self.cfg.requests.saturating_mul(64).saturating_add(100_000);

        while !aborted && !self.fatal {
            guard -= 1;
            if guard == 0 {
                aborted = true;
                break;
            }
            self.poll_faults();
            let now = self.now();
            for arr in self.loadgen.take_due(now) {
                self.route(arr);
            }
            if self.handle_due_respawns(now) {
                continue;
            }
            if let Some(slot) = self.pick_work() {
                self.serve_one(slot);
                continue;
            }
            let queues_empty = self.queues.iter().all(VecDeque::is_empty);
            if self.loadgen.done() && queues_empty {
                break;
            }
            match self.next_deadline() {
                Some(at) => self.idle_advance(at.max(now + 1)),
                // Work is queued but nothing can ever serve it (every
                // holder is terminal) — shed it explicitly and finish.
                None => {
                    for slot in 0..self.cfg.tenants {
                        self.shed_queue(slot);
                    }
                }
            }
        }
        if self.fatal {
            aborted = true;
        }

        // An aborted run still accounts for every queued request.
        if aborted {
            for slot in 0..self.cfg.tenants {
                self.shed_queue(slot);
            }
        }

        let cycles = self.now().saturating_sub(start);
        let n = &self.counts;
        ServeReport {
            offered: self.loadgen.issued(),
            served: n.served,
            failed: n.failed,
            shed: n.shed,
            shed_deadline: n.shed_deadline,
            faults_injected: n.faults_injected,
            recoveries: n.recoveries,
            respawns: n.respawns,
            respawns_denied: n.respawns_denied,
            frontend_respawns: n.frontend_respawns,
            cold_restarts: n.cold_restarts,
            micro_reboots: n.micro_reboots,
            micro_reboot_mismatches: n.micro_reboot_mismatches,
            breaker_opens: self
                .tenants
                .iter()
                .map(|t| u64::from(t.breaker_opens))
                .sum(),
            terminal_tenants: self.tenants.iter().filter(|t| t.is_terminal()).count(),
            cycles,
            latency: n.latency.clone(),
            tenants: self
                .tenants
                .iter()
                .map(|t| TenantSummary {
                    slot: t.slot,
                    tid: t.tid,
                    state: t.state_label(),
                    served: t.served,
                    failed: t.failed,
                    shed: t.shed,
                    respawns: t.respawns,
                    respawns_denied: t.respawns_denied,
                    breaker_opens: t.breaker_opens,
                })
                .collect(),
            frontend_tid: self.frontend_tid,
            aborted,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::any::Any;

    use regvault_sim::{TraceEvent, TraceRecord, Tracer};

    use super::*;

    fn run(cfg: ServeConfig) -> ServeReport {
        Supervisor::new(cfg).expect("boot").run()
    }

    #[test]
    fn fault_free_run_serves_everything() {
        let report = run(ServeConfig {
            requests: 200,
            fault_interval: 0,
            ..ServeConfig::default()
        });
        assert!(!report.aborted, "clean run must not abort");
        assert!(report.accounting_holds(), "identity: {report:?}");
        assert_eq!(
            report.served, 200,
            "no faults, no load pressure: {report:?}"
        );
        assert_eq!(report.failed, 0);
        assert_eq!(report.faults_injected, 0);
        assert_eq!(report.latency.count(), 200);
        assert!(report.rps_per_mcycle() > 0.0);
    }

    #[test]
    fn serve_runs_are_deterministic_per_seed() {
        let cfg = ServeConfig {
            requests: 120,
            fault_interval: 60_000,
            seed: 42,
            ..ServeConfig::default()
        };
        let a = run(cfg);
        let b = run(cfg);
        assert_eq!(a.served, b.served);
        assert_eq!(a.failed, b.failed);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.faults_injected, b.faults_injected);
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn sustained_serving_under_live_faults() {
        let report = run(ServeConfig {
            requests: 300,
            fault_interval: 40_000,
            seed: 7,
            ..ServeConfig::default()
        });
        assert!(!report.aborted, "supervised run must finish: {report:?}");
        assert!(report.accounting_holds(), "identity: {report:?}");
        assert!(report.faults_injected > 0, "injector must fire: {report:?}");
        assert!(
            report.served > report.offered / 2,
            "healthy tenants must keep serving: {report:?}"
        );
        // Every fault-driven casualty was either recovered (respawn) or
        // explicitly quarantined behind an open breaker.
        for t in &report.tenants {
            assert!(
                t.state == "serving"
                    || t.state == "probation"
                    || t.state == "restarting"
                    || t.state.starts_with("breaker-open"),
                "unexpected terminal state {t:?}"
            );
        }
    }

    #[test]
    fn unprotected_kernel_still_accounts_under_faults() {
        // Without protection, corruption is not *detected* at the access
        // site, so fewer faults turn into fail-overs — but the accounting
        // identity must still hold (responses validate end-to-end).
        let report = run(ServeConfig {
            requests: 150,
            fault_interval: 50_000,
            seed: 11,
            protection: ProtectionConfig::off(),
            ..ServeConfig::default()
        });
        assert!(report.accounting_holds(), "identity: {report:?}");
    }

    #[test]
    fn micro_reboot_recovers_escalations_without_cold_restarts() {
        // Escalate on the very first fail-over so every fatal fault takes
        // the restart path; micro-reboot must absorb them.
        let cfg = ServeConfig {
            requests: 200,
            fault_interval: 30_000,
            escalate_failovers: 1,
            seed: 7,
            ..ServeConfig::default()
        };
        let micro = run(cfg);
        assert!(micro.accounting_holds(), "identity: {micro:?}");
        assert!(micro.micro_reboots > 0, "micro-reboot must fire: {micro:?}");
        assert_eq!(
            micro.micro_reboot_mismatches, 0,
            "warm image must stay pristine under CoW: {micro:?}"
        );

        let cold = run(ServeConfig {
            micro_reboot: false,
            ..cfg
        });
        assert!(cold.accounting_holds(), "identity: {cold:?}");
        assert_eq!(cold.micro_reboots, 0);
        assert!(
            micro.cold_restarts < cold.cold_restarts,
            "micro-reboot must absorb restarts: micro={micro:?} cold={cold:?}"
        );
    }

    /// A provisioned supervisor with its warm image captured (when
    /// `micro_reboot`), idled 100k cycles past the capture so that a
    /// failure's clock differs from the image's.
    fn provisioned(micro_reboot: bool) -> Supervisor {
        let mut sup = Supervisor::new(ServeConfig {
            requests: 50,
            seed: 7,
            micro_reboot,
            ..ServeConfig::default()
        })
        .expect("boot");
        // The start of a run: provision, then capture the restore point.
        sup.provision(true).expect("provision");
        sup.capture_warm_image();
        sup.idle_advance(sup.now() + 100_000);
        sup
    }

    /// Replaces the warm image's machine part with a damaged decode of it.
    fn damage_warm_image(sup: &mut Supervisor) {
        let warm = sup
            .warm
            .as_mut()
            .expect("micro-reboot captures a warm image");
        let snapshot = warm.image.snapshot_mut();
        *snapshot = crate::damaged_decode(snapshot);
    }

    /// Escalates `sup` and returns how far its clock moved past the failure.
    fn escalate(sup: &mut Supervisor) -> u64 {
        let failed_at = sup.now();
        sup.restart_tenancy();
        sup.now() - failed_at
    }

    #[test]
    fn damaged_warm_image_fails_integrity_and_cold_restarts() {
        let mut sup = provisioned(true);
        damage_warm_image(&mut sup);
        let downtime = escalate(&mut sup);
        assert_eq!(sup.counts.micro_reboot_mismatches, 1);
        assert_eq!(sup.counts.micro_reboots, 0);
        assert_eq!(sup.counts.cold_restarts, 1);
        assert!(!sup.fatal, "the cold restart re-provisions");

        // The rejected restore rewound the kernel's clock to the image's;
        // the cold restart must still run from the failure.
        let mut cold = provisioned(false);
        assert_eq!(escalate(&mut cold), downtime);
        assert_eq!(sup.now(), cold.now());
    }

    /// A pristine image restores once; damaged afterwards, it must fail
    /// the gate on the next escalation, which then runs from the failure.
    #[test]
    fn warm_image_damaged_after_a_micro_reboot_fails_integrity() {
        let mut sup = provisioned(true);
        assert_eq!(escalate(&mut sup), MICRO_REBOOT_PENALTY);
        assert_eq!(sup.counts.micro_reboots, 1, "the pristine image restores");

        sup.idle_advance(sup.now() + 100_000);
        damage_warm_image(&mut sup);
        let downtime = escalate(&mut sup);
        assert_eq!(sup.counts.micro_reboot_mismatches, 1);
        assert_eq!(sup.counts.micro_reboots, 1);
        assert_eq!(sup.counts.cold_restarts, 1);
        assert!(!sup.fatal, "the cold restart re-provisions");
        assert_eq!(escalate(&mut provisioned(false)), downtime);
    }

    /// Counts the fault-injection events it sees.
    #[derive(Debug, Clone, Default)]
    struct FaultCounter(u64);

    impl Tracer for FaultCounter {
        fn emit(&mut self, record: TraceRecord) {
            if matches!(record.event, TraceEvent::Fault { .. }) {
                self.0 += 1;
            }
        }

        fn boxed_clone(&self) -> Box<dyn Tracer> {
            Box::new(self.clone())
        }

        fn as_any(&self) -> &dyn Any {
            self
        }

        fn into_any(self: Box<Self>) -> Box<dyn Any> {
            self
        }
    }

    #[test]
    fn a_tracer_survives_micro_reboots() {
        let cfg = ServeConfig {
            requests: 300,
            fault_interval: 40_000,
            seed: 7,
            ..ServeConfig::default()
        };
        let untraced = run(cfg);
        let mut sup = Supervisor::new(cfg).expect("boot");
        sup.kernel_mut()
            .machine_mut()
            .install_tracer(Box::new(FaultCounter::default()));
        let report = sup.run_instrumented();
        assert!(report.micro_reboots >= 1, "{report:?}");
        assert_eq!(report.cold_restarts, 0, "{report:?}");
        let key = |r: &ServeReport| (r.served, r.failed, r.shed, r.cycles);
        assert_eq!(key(&report), key(&untraced), "tracing changed the run");

        let counted = sup
            .kernel_mut()
            .machine_mut()
            .take_tracer()
            .expect("the tracer is still installed")
            .into_any()
            .downcast::<FaultCounter>()
            .expect("a fault counter")
            .0;
        // A fault traced just before a reboot is never polled into the
        // report's count, so the trace may hold more.
        assert!(
            counted >= report.faults_injected,
            "traced {counted} faults of {}",
            report.faults_injected
        );
    }

    #[test]
    fn stale_requests_are_shed_at_dequeue() {
        // Heavy overload with an aggressive deadline: once the p99
        // estimate exists, queue heads that out-waited the budget must be
        // shed explicitly rather than served into uselessness.
        let report = run(ServeConfig {
            requests: 600,
            mean_interarrival: 200,
            queue_cap: 64,
            deadline_factor: 1,
            deadline_floor: 1_000,
            seed: 9,
            ..ServeConfig::default()
        });
        assert!(report.accounting_holds(), "identity: {report:?}");
        assert!(
            report.shed_deadline > 0,
            "deadline shedder must fire under overload: {report:?}"
        );
        assert!(report.served > 0);
    }

    #[test]
    fn deadline_shedder_is_inert_when_disabled() {
        let report = run(ServeConfig {
            requests: 300,
            mean_interarrival: 200,
            queue_cap: 64,
            deadline_factor: 0,
            seed: 9,
            ..ServeConfig::default()
        });
        assert!(report.accounting_holds(), "identity: {report:?}");
        assert_eq!(report.shed_deadline, 0);
    }

    #[test]
    fn overload_sheds_explicitly_instead_of_dropping() {
        // Arrivals every ~300 cycles against a service time of thousands:
        // queues must overflow into explicit sheds, and the identity holds.
        let report = run(ServeConfig {
            requests: 400,
            mean_interarrival: 300,
            queue_cap: 4,
            seed: 3,
            ..ServeConfig::default()
        });
        assert!(report.accounting_holds(), "identity: {report:?}");
        assert!(report.shed > 0, "open-loop overload must shed: {report:?}");
        assert!(report.served > 0);
    }
}
