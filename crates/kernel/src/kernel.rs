//! The kernel proper: boot, syscall dispatch, interrupts, user execution.

use rand::{Rng, SeedableRng};
use regvault_isa::{ByteRange, KeyReg, Reg};
use regvault_sim::{Event, InsnClass, Machine, Privilege, SchedEvent, TraceEvent, TrapCause};

use crate::config::{KernelConfig, ProtectionConfig};
use crate::cred::{CredField, CredStore};
use crate::error::KernelError;
use crate::fs::MiniFs;
use crate::keyring::Keyring;
use crate::layout::{Kmalloc, KERNEL_TEXT_BASE, USER_CODE_BASE, USER_STACK_SIZE, USER_STACK_TOP};
use crate::pgd::PageTables;
use crate::selinux::SelinuxState;
use crate::signal::SignalTable;
use crate::syscall::Sysno;
use crate::thread::{ThreadState, ThreadTable, MAX_THREADS};

/// Counters for the panic-free trap-recovery path.
///
/// The security claim these numbers back: an injected fault on protected
/// data is *detected* (integrity trap) and *contained* (the offending
/// thread is quarantined), and the kernel keeps scheduling healthy threads
/// instead of panicking.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Threads taken out of scheduling after a fault.
    pub quarantined: u64,
    /// Fresh replacement threads spawned to keep the pool populated.
    pub respawned: u64,
    /// Faults survived: the kernel recovered and kept running.
    pub traps_survived: u64,
}

/// Outcome of a successful [`Kernel::fail_over`]: which threads were
/// quarantined (and reaped) in the recovery chain, and which healthy thread
/// is now current.
///
/// The supervisor maps the quarantined tids back to tenants, applies its
/// backoff/circuit-breaker policy, and decides when (and whether) to call
/// [`Kernel::spawn_service_thread`] for each lost slot — the kernel itself
/// does not auto-respawn on this path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailOver {
    /// Threads quarantined and reaped during the fail-over, in quarantine
    /// order. The first entry is the originally faulted thread; any later
    /// entries faulted in turn while the kernel searched for a healthy
    /// successor.
    pub quarantined: Vec<u32>,
    /// The thread now running.
    pub current: u32,
}

/// Synthetic return-address region in kernel text for the call-site model.
const KCALL_RA_BASE: u64 = KERNEL_TEXT_BASE + 0x10_0000;

/// The miniature RegVault-protected kernel.
///
/// Owns the simulated [`Machine`]; kernel state lives in guest memory (see
/// [`crate::layout`]), so `kernel.machine_mut().memory_mut()` is exactly
/// the paper's attacker primitive: arbitrary kernel memory read/write.
///
/// See the [crate-level documentation](crate) for an example.
///
/// `Clone` is cheap: guest memory is copy-on-write at page granularity
/// (see [`regvault_sim::Memory`]), so cloning a booted kernel shares every
/// page until one side writes. The server's micro-reboot recovery keeps a
/// warm post-boot clone around and swaps it in when a tenant kernel is
/// corrupted, instead of paying a cold re-boot.
#[derive(Debug, Clone)]
pub struct Kernel {
    machine: Machine,
    cfg: ProtectionConfig,
    heap: Kmalloc,
    /// Per-thread credentials (§3.2.2).
    pub creds: CredStore,
    /// The global SELinux state (§3.2.3).
    pub selinux: SelinuxState,
    /// Kernel keyrings (§3.2.1).
    pub keyring: Keyring,
    /// Page tables (§3.2.4).
    pub page_tables: PageTables,
    /// The VFS (function-pointer protection target, §3.1.2).
    pub fs: MiniFs,
    /// Threads and scheduler (§3.1.1, §2.4.3).
    pub threads: ThreadTable,
    /// Per-thread signal tables (handler pointers are FP-protected).
    pub signals: SignalTable,
    rng: rand::rngs::StdRng,
    /// Base of the generic kernel ops table (8 protected fn pointers used
    /// by the FP-configuration hook model).
    ops_table: u64,
    /// Kernel stack pointer of the in-flight syscall (for the RA model).
    ksp: u64,
    saved_pc: Vec<u64>,
    /// Interrupted pc per thread while its signal handler runs.
    signal_return_pc: Vec<Option<u64>>,
    recovery: RecoveryStats,
}

impl Kernel {
    /// Boots the kernel: installs the general keys, builds every
    /// subsystem, spawns the init thread (uid 1000) and creates a couple
    /// of files.
    ///
    /// # Errors
    ///
    /// Propagates guest-memory faults during initialization.
    pub fn boot(config: KernelConfig) -> Result<Self, KernelError> {
        let mut machine_config = config.machine;
        machine_config.timer_interval = config.timer_interval;
        let mut machine = Machine::new(machine_config);
        let cfg = config.protection;
        let mut rng = rand::rngs::StdRng::seed_from_u64(machine_config.seed ^ 0xB007);

        // Boot-time key ceremony: fresh random general keys.
        for key in [
            KeyReg::A,
            KeyReg::B,
            KeyReg::C,
            KeyReg::D,
            KeyReg::E,
            KeyReg::F,
            KeyReg::G,
        ] {
            machine
                .write_key_register(key, rng.gen(), rng.gen())
                .expect("general keys are writable");
        }

        let mut heap = Kmalloc::new();
        let creds = CredStore::new(&mut heap, MAX_THREADS);
        let selinux = SelinuxState::new(&mut heap, &mut machine, &cfg)?;
        let keyring = Keyring::new(&mut heap, 16);
        let page_tables = PageTables::new(&mut machine, rng.gen())?;
        let mut fs = MiniFs::new(&mut heap, &mut machine, &cfg)?;
        fs.create(&mut heap, &mut machine, "data", 1 << 16)?;
        fs.create(&mut heap, &mut machine, "etc_passwd", 4096)?;
        let mut threads = ThreadTable::new(&mut heap);
        let signals = SignalTable::new(&mut heap);

        // Generic kernel ops table: security hooks, driver ops — the
        // indirect-call sites the FP configuration protects beyond the VFS.
        let ops_table = heap.alloc(64, 8);
        for slot in 0..8u64 {
            let addr = ops_table + 8 * slot;
            let target = Self::ops_hook_target(slot);
            crate::pfield::write_u64_conf(
                &mut machine,
                cfg.key_policy().fn_ptr,
                addr,
                target,
                cfg.fp,
            )?;
        }

        let init = threads.spawn(&mut machine, &cfg, &mut rng)?;
        creds.init(&mut machine, &cfg, init, 1000, 1000)?;
        threads.current = init;
        threads.install_keys(&mut machine, &cfg, init)?;

        let ksp = crate::layout::kernel_stack_top(init) - crate::trap::FRAME_SIZE - 64;
        Ok(Self {
            machine,
            cfg,
            heap,
            creds,
            selinux,
            keyring,
            page_tables,
            fs,
            threads,
            signals,
            rng,
            ops_table,
            ksp,
            saved_pc: vec![0; MAX_THREADS as usize],
            signal_return_pc: vec![None; MAX_THREADS as usize],
            recovery: RecoveryStats::default(),
        })
    }

    /// The active protection configuration.
    #[must_use]
    pub fn protection(&self) -> ProtectionConfig {
        self.cfg
    }

    /// The simulated machine.
    #[must_use]
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable machine access — also the attacker's arbitrary kernel
    /// memory read/write primitive.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The currently running thread.
    #[must_use]
    pub fn current_tid(&self) -> u32 {
        self.threads.current
    }

    /// Counters for the trap-recovery path.
    #[must_use]
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// Draws kernel-internal randomness (key generation).
    pub(crate) fn rng_gen(&mut self) -> u64 {
        self.rng.gen()
    }

    /// Guest address of generic ops-table slot `slot` (crate-internal, for
    /// key rotation).
    pub(crate) fn ops_table_slot(&self, slot: u64) -> u64 {
        self.ops_table + 8 * (slot % 8)
    }

    // --- Return-address protection model (§3.1.1) ----------------------
    //
    // Every nested kernel function call pushes a return address onto the
    // kernel stack. With RA protection the prologue encrypts it (per-thread
    // key, stack pointer as tweak) and the epilogue decrypts it. These two
    // methods perform that sequence with real stores/loads on the kernel
    // stack; the benchmark overhead of the "RA" configuration comes from
    // exactly these operations.

    fn kcall_ra(site: u32) -> u64 {
        KCALL_RA_BASE + u64::from(site) * 16
    }

    /// Top of thread `tid`'s fixed user-stack region.
    ///
    /// Stacks are assigned per slot, not bump-allocated: slot reuse after a
    /// reap maps the same region again (idempotent), so marathon
    /// fault/respawn runs cannot walk the stack area down into user code
    /// the way a monotonically descending allocator would.
    fn user_stack_top(tid: u32) -> u64 {
        USER_STACK_TOP - u64::from(tid) * USER_STACK_SIZE
    }

    /// The legitimate target of generic ops-table slot `slot`.
    fn ops_hook_target(slot: u64) -> u64 {
        KERNEL_TEXT_BASE + 0x2000 + slot * 64
    }

    /// Dispatches one indirect call through the generic ops table: load,
    /// decrypt (under FP protection), jump. A corrupted pointer surfaces
    /// as a wild jump.
    fn ops_hook(&mut self, slot: u64) -> Result<(), KernelError> {
        let addr = self.ops_table + 8 * (slot % 8);
        let target = crate::pfield::read_u64_conf(
            &mut self.machine,
            self.cfg.key_policy().fn_ptr,
            addr,
            self.cfg.fp,
        )?;
        self.machine.charge(InsnClass::Jump, 1);
        if target != Self::ops_hook_target(slot % 8) {
            return Err(KernelError::WildJump { target });
        }
        Ok(())
    }

    /// Enters a kernel function: pushes the (possibly encrypted) return
    /// address for `site`.
    ///
    /// # Errors
    ///
    /// Propagates guest-memory faults.
    pub fn push_kframe(&mut self, site: u32) -> Result<u64, KernelError> {
        self.ksp -= 48;
        self.machine.charge(InsnClass::Alu, 4);
        self.machine.charge(InsnClass::Store, 2);
        let ra = Self::kcall_ra(site);
        let slot = self.ksp;
        let stored = if self.cfg.ra {
            self.machine.kernel_encrypt(
                self.cfg.key_policy().return_addr,
                slot,
                ra,
                ByteRange::FULL,
            )
        } else {
            ra
        };
        self.machine.kernel_store_u64(slot, stored)?;
        Ok(slot)
    }

    /// Leaves a kernel function: pops and (with protection) decrypts the
    /// return address, then "returns" to it.
    ///
    /// # Errors
    ///
    /// [`KernelError::WildJump`] when the popped return address is not the
    /// call site's — i.e. an attacker overwrote the stack slot. Under RA
    /// protection the attacker-controlled value decrypts to garbage.
    pub fn pop_kframe(&mut self, site: u32) -> Result<(), KernelError> {
        let slot = self.ksp;
        let raw = self.machine.kernel_load_u64(slot)?;
        // Full-range decrypts carry no redundancy; a corrupted slot yields
        // garbage rather than a failure, and the address comparison below
        // is what catches it. Taking the garbled value from the error arm
        // keeps even a faulted crypto datapath panic-free.
        let ra = if self.cfg.ra {
            self.machine
                .kernel_decrypt(
                    self.cfg.key_policy().return_addr,
                    slot,
                    raw,
                    ByteRange::FULL,
                )
                .unwrap_or_else(|garbled| garbled)
        } else {
            raw
        };
        self.machine.charge(InsnClass::Alu, 3);
        self.machine.charge(InsnClass::Load, 1);
        self.ksp += 48;
        let expected = Self::kcall_ra(site);
        if ra != expected {
            return Err(KernelError::WildJump { target: ra });
        }
        Ok(())
    }

    // --- Syscalls -------------------------------------------------------

    /// Dispatches a syscall by number with up to three arguments.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadSyscall`] for unknown numbers; handler errors
    /// otherwise. Integrity violations and wild jumps indicate the kernel
    /// detected (or crashed on) tampering.
    pub fn dispatch(&mut self, num: u64, args: [u64; 3]) -> Result<u64, KernelError> {
        let sysno = Sysno::from_u64(num).ok_or(KernelError::BadSyscall(num))?;
        let entry_cycle = self.machine.stats().cycles;
        self.machine.record_sched(SchedEvent::Syscall);
        self.machine.trace_emit(TraceEvent::TrapEnter {
            cause: TrapCause::Syscall(num),
        });
        // Trap entry: privilege switch + pt_regs save.
        self.machine.charge(InsnClass::Alu, 35);
        self.machine.charge(InsnClass::Store, 31);
        self.machine.charge(InsnClass::Alu, sysno.base_insns());

        // Permission check on credential-guarded paths (reads the
        // protected cred.euid).
        if sysno.checks_creds() {
            let tid = self.threads.current;
            let cfg = self.cfg;
            let _ = self
                .creds
                .read(&mut self.machine, &cfg, tid, CredField::Euid)?;
            // LSM hook: the security module consults selinux_state.
            let selinux = self.selinux.clone();
            let _ = selinux.avc_check(&mut self.machine, &cfg, true)?;
        }
        // Indirect calls through protected kernel ops tables.
        for hook in 0..sysno.fp_hooks() {
            self.ops_hook(u64::from(hook))?;
        }

        // The nested call chain of this syscall path.
        let depth = sysno.call_depth();
        let site_base = (num as u32) * 100;
        for level in 0..depth {
            self.push_kframe(site_base + level)?;
        }

        // `Yield` switches threads mid-path: the per-thread RA key changes
        // with the switch, so (as in a real `schedule()`, where each thread
        // pops its own frames after resuming) the call chain completes
        // before control leaves this thread.
        let result = if matches!(sysno, Sysno::Yield | Sysno::Exit) {
            for level in (0..depth).rev() {
                self.pop_kframe(site_base + level)?;
            }
            self.handle(sysno, args)
        } else {
            let result = self.handle(sysno, args);
            for level in (0..depth).rev() {
                self.pop_kframe(site_base + level)?;
            }
            result
        };
        // Trap exit: pt_regs restore + return to user.
        self.machine.charge(InsnClass::Load, 31);
        self.machine.charge(InsnClass::Alu, 22);
        let cycles = self.machine.stats().cycles - entry_cycle;
        self.machine
            .record_sched(SchedEvent::SyscallReturn { cycles });
        self.machine.trace_emit(TraceEvent::TrapExit {
            cause: TrapCause::Syscall(num),
        });
        result
    }

    fn handle(&mut self, sysno: Sysno, args: [u64; 3]) -> Result<u64, KernelError> {
        let tid = self.threads.current;
        let cfg = self.cfg;
        match sysno {
            Sysno::Null => Ok(0),
            Sysno::Getpid => Ok(u64::from(tid)),
            Sysno::Getuid => Ok(u64::from(self.creds.read(
                &mut self.machine,
                &cfg,
                tid,
                CredField::Uid,
            )?)),
            Sysno::Geteuid => Ok(u64::from(self.creds.read(
                &mut self.machine,
                &cfg,
                tid,
                CredField::Euid,
            )?)),
            Sysno::Getgid => Ok(u64::from(self.creds.read(
                &mut self.machine,
                &cfg,
                tid,
                CredField::Gid,
            )?)),
            Sysno::Setuid => {
                let new_uid = args[0] as u32;
                if !self.selinux.avc_check(&mut self.machine, &cfg, true)? {
                    return Err(KernelError::PermissionDenied);
                }
                let euid = self
                    .creds
                    .read(&mut self.machine, &cfg, tid, CredField::Euid)?;
                let uid = self
                    .creds
                    .read(&mut self.machine, &cfg, tid, CredField::Uid)?;
                if euid != 0 && new_uid != uid {
                    return Err(KernelError::PermissionDenied);
                }
                for field in [CredField::Uid, CredField::Euid] {
                    self.creds
                        .write(&mut self.machine, &cfg, tid, field, new_uid)?;
                }
                Ok(0)
            }
            Sysno::Open => {
                let (name_ptr, len) = (args[0], args[1]);
                if len > 64 {
                    return Err(KernelError::InvalidArgument);
                }
                if !self.selinux.avc_check(&mut self.machine, &cfg, true)? {
                    return Err(KernelError::PermissionDenied);
                }
                let bytes = self.machine.memory().read_vec(name_ptr, len as usize)?;
                let name = String::from_utf8(bytes).map_err(|_| KernelError::InvalidArgument)?;
                self.fs.open(&mut self.machine, &name)
            }
            Sysno::Close => self.fs.close(args[0]).map(|()| 0),
            Sysno::Read => {
                if !self.selinux.avc_check(&mut self.machine, &cfg, true)? {
                    return Err(KernelError::PermissionDenied);
                }
                self.fs
                    .read(&mut self.machine, &cfg, args[0], args[1], args[2])
            }
            Sysno::Write => {
                if !self.selinux.avc_check(&mut self.machine, &cfg, true)? {
                    return Err(KernelError::PermissionDenied);
                }
                self.fs
                    .write(&mut self.machine, &cfg, args[0], args[1], args[2])
            }
            Sysno::Stat => self.fs.stat(&mut self.machine, &cfg, args[0]),
            Sysno::Seek => self.fs.seek(args[0], args[1]).map(|()| 0),
            Sysno::Pipe => {
                let (rfd, wfd) = self.fs.pipe(&mut self.heap, &mut self.machine)?;
                Ok((rfd << 32) | wfd)
            }
            Sysno::Yield => {
                self.switch_to(self.threads.next_runnable())?;
                Ok(0)
            }
            Sysno::AddKey => {
                let bytes = self.machine.memory().read_vec(args[0], 16)?;
                let material: [u8; 16] = bytes.try_into().expect("16 bytes");
                self.machine.charge(InsnClass::Load, 2);
                self.keyring.add_key(&mut self.machine, &cfg, material)
            }
            Sysno::AesEncrypt => {
                let bytes = self.machine.memory().read_vec(args[1], 16)?;
                let block: [u8; 16] = bytes.try_into().expect("16 bytes");
                self.machine.charge(InsnClass::Load, 2);
                let ct = self
                    .keyring
                    .aes_encrypt(&mut self.machine, &cfg, args[0], block)?;
                self.machine.memory_mut().write_slice(args[2], &ct);
                self.machine.charge(InsnClass::Store, 2);
                Ok(0)
            }
            Sysno::Mmap => {
                let vaddr = args[0] & !0xFFF;
                let paddr = 0x9000_0000 + (vaddr & 0xFFFF_F000);
                self.page_tables
                    .map(&mut self.machine, &cfg, vaddr, paddr)?;
                self.machine.memory_mut().map_region(vaddr, 4096);
                Ok(vaddr)
            }
            Sysno::Munmap => self
                .page_tables
                .unmap(&mut self.machine, &cfg, args[0] & !0xFFF)
                .map(|()| 0),
            Sysno::Spawn => {
                let tid = self.spawn_thread(args[0])?;
                Ok(u64::from(tid))
            }
            Sysno::SelinuxCheck => Ok(u64::from(self.selinux.avc_check(
                &mut self.machine,
                &cfg,
                false,
            )?)),
            Sysno::Sigaction => {
                let signals = self.signals.clone();
                signals
                    .register(&mut self.machine, &cfg, tid, args[0], args[1])
                    .map(|()| 0)
            }
            Sysno::Kill => {
                let target = args[0] as u32;
                if target >= crate::thread::MAX_THREADS {
                    return Err(KernelError::InvalidArgument);
                }
                let signals = self.signals.clone();
                signals
                    .raise(&mut self.machine, target, args[1])
                    .map(|()| 0)
            }
            Sysno::Exit => {
                // Only non-init threads exit through here (init terminates
                // the program with ebreak).
                if tid == 0 {
                    return Err(KernelError::InvalidArgument);
                }
                self.machine.charge(InsnClass::Alu, 200); // teardown
                let next = {
                    self.threads.free(tid);
                    self.threads.next_runnable()
                };
                self.signal_return_pc[tid as usize] = None;
                self.switch_to(next)?;
                Ok(0)
            }
            Sysno::Sigreturn => {
                let return_pc = self.signal_return_pc[tid as usize]
                    .take()
                    .ok_or(KernelError::InvalidArgument)?;
                // The saved pc is the post-ecall resume point (run_user
                // advances before dispatch); restore it verbatim.
                self.machine.hart_mut().set_pc(return_pc);
                Ok(0)
            }
        }
    }

    /// Spawns a user thread starting at `entry_pc` (0 = caller's pc,
    /// kernel-side threads only).
    fn spawn_thread(&mut self, entry_pc: u64) -> Result<u32, KernelError> {
        let cfg = self.cfg;
        let parent = self.threads.current;
        let tid = self.threads.spawn(&mut self.machine, &cfg, &mut self.rng)?;
        let uid = self
            .creds
            .read(&mut self.machine, &cfg, parent, CredField::Uid)?;
        let gid = self
            .creds
            .read(&mut self.machine, &cfg, parent, CredField::Gid)?;
        self.creds.init(&mut self.machine, &cfg, tid, uid, gid)?;
        self.saved_pc[tid as usize] = entry_pc;
        // Give the thread its slot's fixed user stack and an initial CIP
        // frame (written under the *new* thread's interrupt key).
        let stack_top = Self::user_stack_top(tid);
        let user_sp = stack_top - 16;
        self.machine
            .memory_mut()
            .map_region(stack_top - USER_STACK_SIZE, USER_STACK_SIZE);
        let snapshot = self.machine.hart().regs();
        self.machine.hart_mut().set_reg(Reg::Sp, user_sp);
        self.threads.install_keys(&mut self.machine, &cfg, tid)?;
        crate::trap::save_context(
            &mut self.machine,
            &cfg,
            cfg.key_policy().interrupt,
            self.threads.interrupt_frame_addr(tid),
        )?;
        // Restore the parent's registers and keys.
        for (i, value) in snapshot.iter().enumerate().skip(1) {
            let reg = Reg::from_index(i as u8).expect("register index");
            self.machine.hart_mut().set_reg(reg, *value);
        }
        self.threads.install_keys(&mut self.machine, &cfg, parent)?;
        Ok(tid)
    }

    /// Switches to thread `to` (scheduler path; also the timer handler).
    fn switch_to(&mut self, to: u32) -> Result<(), KernelError> {
        let cfg = self.cfg;
        let from = self.threads.current;
        if to != from {
            self.saved_pc[from as usize] = self.machine.hart().pc();
        }
        self.threads.context_switch(&mut self.machine, &cfg, to)?;
        if to != from {
            let pc = self.saved_pc[to as usize];
            self.machine.hart_mut().set_pc(pc);
            self.ksp = crate::layout::kernel_stack_top(to) - crate::trap::FRAME_SIZE - 64;
            self.machine.record_sched(SchedEvent::ContextSwitch);
            self.machine
                .trace_emit(TraceEvent::ContextSwitch { from, to });
        }
        Ok(())
    }

    /// Delivers one pending signal to the current thread if it is not
    /// already inside a handler: saves the interrupted pc and redirects
    /// control to the (decrypted) handler. A corrupted handler pointer
    /// garbles under FP protection and crashes at a wild pc.
    fn maybe_deliver_signal(&mut self) -> Result<(), KernelError> {
        let cfg = self.cfg;
        let tid = self.threads.current;
        if self.signal_return_pc[tid as usize].is_some() {
            return Ok(()); // handlers do not nest in this model
        }
        let signals = self.signals.clone();
        if let Some((_signo, handler)) = signals.deliver(&mut self.machine, &cfg, tid)? {
            self.signal_return_pc[tid as usize] = Some(self.machine.hart().pc());
            self.machine.hart_mut().set_pc(handler);
        }
        Ok(())
    }

    /// The shared recovery core: quarantines the current (faulted) thread
    /// and switches to a healthy runnable one, abandoning the faulted
    /// context entirely. If the incoming thread's own saved context turns
    /// out to be corrupted (its CIP restore trips the integrity check), it
    /// is quarantined in turn and the search continues — at most
    /// [`MAX_THREADS`] iterations.
    ///
    /// On success, **every** thread quarantined along the chain is reaped
    /// (its slot freed for a fresh spawn) and the chain is returned — not
    /// just the last link, so a multi-hop recovery cannot strand
    /// intermediate slots in quarantine forever. On failure (`None`), no
    /// healthy thread remains; the chain members stay quarantined for the
    /// embedder to inspect.
    fn quarantine_and_switch(&mut self) -> Option<Vec<u32>> {
        let cfg = self.cfg;
        let mut chain = Vec::new();
        for _ in 0..=MAX_THREADS {
            let faulted = self.threads.current;
            self.threads.quarantine(faulted);
            self.recovery.quarantined = self.recovery.quarantined.saturating_add(1);
            self.signal_return_pc[faulted as usize] = None;
            chain.push(faulted);
            let next = self.threads.next_runnable();
            if next == faulted || self.threads.state(next) != ThreadState::Runnable {
                return None;
            }
            match self.threads.switch_abandon(&mut self.machine, &cfg, next) {
                Ok(()) => {
                    self.machine.hart_mut().set_pc(self.saved_pc[next as usize]);
                    self.ksp = crate::layout::kernel_stack_top(next) - crate::trap::FRAME_SIZE - 64;
                    // Quarantined slots are safe to reuse: spawn rewrites
                    // thread_info and generates fresh keys.
                    for &tid in &chain {
                        self.threads.reap(tid);
                    }
                    self.recovery.traps_survived = self.recovery.traps_survived.saturating_add(1);
                    return Some(chain);
                }
                // `switch_abandon` updates `current` before restoring, so a
                // failed restore leaves the corrupt incoming thread as
                // current — the next iteration quarantines it too.
                Err(_) => continue,
            }
        }
        None
    }

    /// The in-kernel recovery policy used by [`Kernel::run_user`]: fail over
    /// and immediately respawn a freshly-keyed replacement per reaped slot,
    /// so sustained fault injection cannot drain the pool. Returns `true`
    /// when the kernel can keep running.
    fn recover_current_thread(&mut self) -> bool {
        match self.quarantine_and_switch() {
            Some(chain) => {
                for _ in &chain {
                    if self.respawn_replacement().is_ok() {
                        self.recovery.respawned = self.recovery.respawned.saturating_add(1);
                    }
                }
                true
            }
            None => false,
        }
    }

    /// Fails over away from the current (faulted) thread **without**
    /// auto-respawning — the supervisor-facing recovery hook.
    ///
    /// The quarantine chain is reaped and returned so the embedder can map
    /// lost threads back to tenants and apply its own respawn policy
    /// (backoff, circuit breakers) via [`Kernel::spawn_service_thread`].
    ///
    /// When *no* healthy thread remains (every slot quarantined — e.g. a
    /// master-key tamper felled the whole pool), this reaps the entire
    /// table and cold-spawns one fresh boot-cred thread so the kernel can
    /// keep serving; the returned chain then lists every reaped thread.
    ///
    /// # Errors
    ///
    /// [`KernelError::ThreadTableFull`] (or a propagated spawn error) only
    /// when even the cold-spawn fallback fails; the kernel is then beyond
    /// in-place recovery and the embedder should reboot it.
    pub fn fail_over(&mut self) -> Result<FailOver, KernelError> {
        if let Some(chain) = self.quarantine_and_switch() {
            return Ok(FailOver {
                quarantined: chain,
                current: self.threads.current,
            });
        }
        // Total loss: every thread is quarantined. Reap them all and
        // cold-spawn a fresh thread to become current.
        let mut reaped = Vec::new();
        for tid in 0..MAX_THREADS {
            if self.threads.state(tid) == ThreadState::Quarantined {
                self.threads.reap(tid);
                reaped.push(tid);
            }
        }
        let fresh = self.cold_spawn_current()?;
        self.recovery.traps_survived = self.recovery.traps_survived.saturating_add(1);
        Ok(FailOver {
            quarantined: reaped,
            current: fresh,
        })
    }

    /// Spawns a freshly-keyed boot-cred thread for the supervisor's respawn
    /// path, counting it in [`RecoveryStats::respawned`].
    ///
    /// # Errors
    ///
    /// [`KernelError::ThreadTableFull`] when no slot is free — a typed
    /// degradation event the supervisor can back off on, never a panic.
    pub fn spawn_service_thread(&mut self) -> Result<u32, KernelError> {
        let tid = self.respawn_replacement()?;
        self.recovery.respawned = self.recovery.respawned.saturating_add(1);
        Ok(tid)
    }

    /// Switches execution to thread `to` — the supervisor's dispatch path
    /// for directing the service loop at a chosen tenant thread.
    ///
    /// # Errors
    ///
    /// [`KernelError::InvalidArgument`] when `to` is out of range or not
    /// schedulable; [`KernelError::IntegrityViolation`] when the incoming
    /// thread's saved context was tampered with (the caller should then
    /// invoke [`Kernel::fail_over`]).
    pub fn switch_thread(&mut self, to: u32) -> Result<(), KernelError> {
        if to >= MAX_THREADS
            || !matches!(
                self.threads.state(to),
                ThreadState::Runnable | ThreadState::Current
            )
        {
            return Err(KernelError::InvalidArgument);
        }
        self.switch_to(to)
    }

    /// Cold-spawns a fresh thread and makes it current without saving any
    /// outgoing context — the last-resort path when the whole pool was
    /// quarantined and nothing trustworthy remains to return to.
    fn cold_spawn_current(&mut self) -> Result<u32, KernelError> {
        let cfg = self.cfg;
        let tid = self.threads.spawn(&mut self.machine, &cfg, &mut self.rng)?;
        self.creds.init(&mut self.machine, &cfg, tid, 1000, 1000)?;
        self.signal_return_pc[tid as usize] = None;
        self.saved_pc[tid as usize] = self.machine.hart().pc();
        let stack_top = Self::user_stack_top(tid);
        self.machine
            .memory_mut()
            .map_region(stack_top - USER_STACK_SIZE, USER_STACK_SIZE);
        self.machine.hart_mut().set_reg(Reg::Sp, stack_top - 16);
        self.threads.install_keys(&mut self.machine, &cfg, tid)?;
        crate::trap::save_context(
            &mut self.machine,
            &cfg,
            cfg.key_policy().interrupt,
            self.threads.interrupt_frame_addr(tid),
        )?;
        self.threads.switch_abandon(&mut self.machine, &cfg, tid)?;
        self.machine.hart_mut().set_pc(self.saved_pc[tid as usize]);
        self.ksp = crate::layout::kernel_stack_top(tid) - crate::trap::FRAME_SIZE - 64;
        self.recovery.respawned = self.recovery.respawned.saturating_add(1);
        Ok(tid)
    }

    /// Spawns a freshly-keyed replacement for a reaped thread.
    ///
    /// Unlike [`Kernel::spawn_thread`] the replacement does **not** inherit
    /// the faulted parent's credentials — that cred block is untrusted —
    /// and instead starts with the boot uid/gid.
    fn respawn_replacement(&mut self) -> Result<u32, KernelError> {
        let cfg = self.cfg;
        let current = self.threads.current;
        let tid = self.threads.spawn(&mut self.machine, &cfg, &mut self.rng)?;
        self.creds.init(&mut self.machine, &cfg, tid, 1000, 1000)?;
        self.saved_pc[tid as usize] = self.machine.hart().pc();
        self.signal_return_pc[tid as usize] = None;
        let stack_top = Self::user_stack_top(tid);
        let user_sp = stack_top - 16;
        self.machine
            .memory_mut()
            .map_region(stack_top - USER_STACK_SIZE, USER_STACK_SIZE);
        // Seed the replacement's CIP frame under its own keys, then put the
        // running thread's registers and keys back.
        let snapshot = self.machine.hart().regs();
        self.machine.hart_mut().set_reg(Reg::Sp, user_sp);
        self.threads.install_keys(&mut self.machine, &cfg, tid)?;
        crate::trap::save_context(
            &mut self.machine,
            &cfg,
            cfg.key_policy().interrupt,
            self.threads.interrupt_frame_addr(tid),
        )?;
        for (i, value) in snapshot.iter().enumerate().skip(1) {
            let reg = Reg::from_index(i as u8).expect("register index");
            self.machine.hart_mut().set_reg(reg, *value);
        }
        self.threads
            .install_keys(&mut self.machine, &cfg, current)?;
        Ok(tid)
    }

    /// Handles a timer interrupt: CIP-protect the interrupted context,
    /// run the scheduler, restore.
    ///
    /// # Errors
    ///
    /// [`KernelError::IntegrityViolation`] if a saved context was tampered
    /// with (attack ❼ of Table 4).
    pub fn handle_timer(&mut self) -> Result<(), KernelError> {
        self.machine.trace_emit(TraceEvent::TrapEnter {
            cause: TrapCause::Timer,
        });
        self.machine.charge(InsnClass::Alu, 40); // trap entry/exit
        self.machine.charge(InsnClass::Store, 6);
        let next = self.threads.next_runnable();
        if next != self.threads.current {
            self.machine.record_sched(SchedEvent::Preemption);
        }
        let result = self.switch_to(next);
        self.machine.trace_emit(TraceEvent::TrapExit {
            cause: TrapCause::Timer,
        });
        result
    }

    // --- Convenience syscall wrappers (used by tests and examples) ------

    /// `getuid()`.
    ///
    /// # Errors
    ///
    /// Integrity violations on tampered credentials.
    pub fn sys_getuid(&mut self) -> Result<u32, KernelError> {
        self.dispatch(Sysno::Getuid as u64, [0; 3])
            .map(|v| v as u32)
    }

    /// `setuid(uid)`.
    ///
    /// # Errors
    ///
    /// [`KernelError::PermissionDenied`] for unprivileged callers.
    pub fn sys_setuid(&mut self, uid: u32) -> Result<(), KernelError> {
        self.dispatch(Sysno::Setuid as u64, [u64::from(uid), 0, 0])
            .map(|_| ())
    }

    /// Runs a user program image to completion (its `ebreak`), returning
    /// the final `a0`.
    ///
    /// Detected tampering (integrity violations, wild jumps, memory faults
    /// inside a syscall) and guest exceptions are *recoverable*: the
    /// offending thread is quarantined and execution continues on a healthy
    /// thread when one exists. Only when no healthy thread remains does the
    /// original error surface — so a single-threaded program still reports
    /// its fault, while a multi-threaded kernel survives per-thread damage
    /// (see [`Kernel::recovery_stats`]).
    ///
    /// # Errors
    ///
    /// [`KernelError::UserFault`] on unrecovered guest exceptions,
    /// [`KernelError::StepLimit`] when the budget runs out,
    /// [`KernelError::Sim`] for simulator-level failures (e.g. an armed
    /// watchdog timing out a wedged guest), and any unrecovered fatal
    /// kernel error (integrity violation, wild jump) raised by syscalls.
    pub fn run_user(
        &mut self,
        image: &[u8],
        entry_offset: u64,
        max_steps: u64,
    ) -> Result<u64, KernelError> {
        self.machine.load_program(USER_CODE_BASE, image);
        self.machine
            .memory_mut()
            .map_region(USER_STACK_TOP - USER_STACK_SIZE, USER_STACK_SIZE + 16);
        self.machine
            .hart_mut()
            .set_pc(USER_CODE_BASE + entry_offset);
        self.machine
            .hart_mut()
            .set_reg(Reg::Sp, USER_STACK_TOP - 64);
        self.machine.hart_mut().set_privilege(Privilege::User);

        let mut budget = max_steps;
        loop {
            let event = match self.machine.run(budget.min(1_000_000)) {
                Ok(event) => event,
                Err(regvault_sim::SimError::StepLimitExceeded { limit }) => {
                    budget = budget.saturating_sub(limit);
                    if budget == 0 {
                        return Err(KernelError::StepLimit);
                    }
                    continue;
                }
                // A watchdog timeout still carries the recovery counters
                // accumulated so far — a truncated run stays diagnosable.
                Err(regvault_sim::SimError::Timeout { budget }) => {
                    return Err(KernelError::Timeout {
                        budget,
                        recovery: self.recovery,
                    })
                }
                // Other simulator-level failures are not attributable to
                // one instruction; surface them typed.
                Err(err) => return Err(KernelError::Sim(err)),
            };
            match event {
                Event::Break => {
                    return Ok(self.machine.hart().reg(Reg::A0));
                }
                Event::Ecall { .. } => {
                    let num = self.machine.hart().reg(Reg::A7);
                    let args = [
                        self.machine.hart().reg(Reg::A0),
                        self.machine.hart().reg(Reg::A1),
                        self.machine.hart().reg(Reg::A2),
                    ];
                    // Resume point is the instruction after the ecall; set
                    // it *before* dispatch so a scheduling syscall saves
                    // the advanced pc.
                    self.machine.advance_pc();
                    self.machine.hart_mut().set_privilege(Privilege::Kernel);
                    let switches = num == Sysno::Yield as u64 || num == Sysno::Exit as u64;
                    match self.dispatch(num, args) {
                        // After a thread switch the hart holds the incoming
                        // thread's registers; the yield return value is not
                        // written (its a0 was restored from its frame).
                        Ok(_) if switches => {}
                        Ok(value) => self.machine.hart_mut().set_reg(Reg::A0, value),
                        // The kernel detected tampering (or crashed on its
                        // garbled residue) in this thread's syscall path:
                        // quarantine it and keep scheduling healthy threads
                        // rather than taking the whole kernel down.
                        Err(
                            err @ (KernelError::IntegrityViolation { .. }
                            | KernelError::WildJump { .. }
                            | KernelError::MemoryFault(_)),
                        ) => {
                            if !self.recover_current_thread() {
                                return Err(err);
                            }
                        }
                        Err(_) => self.machine.hart_mut().set_reg(Reg::A0, u64::MAX),
                    }
                    self.maybe_deliver_signal()?;
                    self.machine.hart_mut().set_privilege(Privilege::User);
                }
                Event::TimerInterrupt => {
                    self.machine.hart_mut().set_privilege(Privilege::Kernel);
                    // A failed switch means the *incoming* thread's saved
                    // context was corrupted (context_switch already made it
                    // current); quarantine it and continue if possible.
                    if let Err(err) = self.handle_timer() {
                        if !self.recover_current_thread() {
                            return Err(err);
                        }
                    }
                    self.machine.hart_mut().set_privilege(Privilege::User);
                }
                Event::Exception { cause, tval: _ } => {
                    let pc = self.machine.hart().pc();
                    self.machine.hart_mut().set_privilege(Privilege::Kernel);
                    self.machine.trace_emit(TraceEvent::TrapEnter {
                        cause: TrapCause::Exception(cause),
                    });
                    let recovered = self.recover_current_thread();
                    self.machine.hart_mut().set_privilege(Privilege::User);
                    if !recovered {
                        return Err(KernelError::UserFault { cause, pc });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(cfg: ProtectionConfig) -> Kernel {
        Kernel::boot(KernelConfig {
            protection: cfg,
            ..KernelConfig::default()
        })
        .expect("boot")
    }

    #[test]
    fn boot_and_basic_syscalls() {
        let mut k = kernel(ProtectionConfig::full());
        assert_eq!(k.sys_getuid().unwrap(), 1000);
        assert_eq!(k.dispatch(Sysno::Getpid as u64, [0; 3]).unwrap(), 0);
        assert_eq!(k.dispatch(Sysno::Null as u64, [0; 3]).unwrap(), 0);
        assert!(matches!(
            k.dispatch(999, [0; 3]),
            Err(KernelError::BadSyscall(999))
        ));
    }

    #[test]
    fn setuid_policy() {
        let mut k = kernel(ProtectionConfig::full());
        // Non-root cannot change uid.
        assert!(matches!(
            k.sys_setuid(0),
            Err(KernelError::PermissionDenied)
        ));
        // Setting the same uid is a no-op success.
        k.sys_setuid(1000).unwrap();
    }

    #[test]
    fn file_syscalls_round_trip() {
        let mut k = kernel(ProtectionConfig::full());
        let name_ptr = 0x20_0000u64;
        k.machine_mut().memory_mut().write_slice(name_ptr, b"data");
        let fd = k.dispatch(Sysno::Open as u64, [name_ptr, 4, 0]).unwrap();
        let buf = 0x21_0000u64;
        k.machine_mut().memory_mut().write_slice(buf, b"regvault");
        assert_eq!(k.dispatch(Sysno::Write as u64, [fd, buf, 8]).unwrap(), 8);
        k.dispatch(Sysno::Seek as u64, [fd, 0, 0]).unwrap();
        let out = 0x22_0000u64;
        k.machine_mut().memory_mut().map_region(out, 64);
        assert_eq!(k.dispatch(Sysno::Read as u64, [fd, out, 8]).unwrap(), 8);
        assert_eq!(k.machine().memory().read_vec(out, 8).unwrap(), b"regvault");
        assert_eq!(k.dispatch(Sysno::Stat as u64, [fd, 0, 0]).unwrap(), 8);
        k.dispatch(Sysno::Close as u64, [fd, 0, 0]).unwrap();
    }

    #[test]
    fn pipe_syscalls() {
        let mut k = kernel(ProtectionConfig::full());
        let pair = k.dispatch(Sysno::Pipe as u64, [0; 3]).unwrap();
        let (rfd, wfd) = (pair >> 32, pair & 0xFFFF_FFFF);
        let buf = 0x23_0000u64;
        k.machine_mut().memory_mut().write_slice(buf, b"xy");
        assert_eq!(k.dispatch(Sysno::Write as u64, [wfd, buf, 2]).unwrap(), 2);
        let out = 0x24_0000u64;
        k.machine_mut().memory_mut().map_region(out, 16);
        assert_eq!(k.dispatch(Sysno::Read as u64, [rfd, out, 2]).unwrap(), 2);
    }

    #[test]
    fn keyring_syscalls_protect_material() {
        let mut k = kernel(ProtectionConfig::full());
        let key_ptr = 0x25_0000u64;
        k.machine_mut()
            .memory_mut()
            .write_slice(key_ptr, b"0123456789abcdef");
        let serial = k.dispatch(Sysno::AddKey as u64, [key_ptr, 0, 0]).unwrap();
        let in_ptr = 0x26_0000u64;
        let out_ptr = 0x27_0000u64;
        k.machine_mut()
            .memory_mut()
            .write_slice(in_ptr, b"blockblockblock!");
        k.machine_mut().memory_mut().map_region(out_ptr, 16);
        k.dispatch(Sysno::AesEncrypt as u64, [serial, in_ptr, out_ptr])
            .unwrap();
        let ct = k.machine().memory().read_vec(out_ptr, 16).unwrap();
        assert_ne!(&ct, b"blockblockblock!");
    }

    #[test]
    fn mmap_and_munmap() {
        let mut k = kernel(ProtectionConfig::full());
        let vaddr = k.dispatch(Sysno::Mmap as u64, [0x5000_0000, 0, 0]).unwrap();
        assert_eq!(vaddr, 0x5000_0000);
        k.dispatch(Sysno::Munmap as u64, [vaddr, 0, 0]).unwrap();
    }

    #[test]
    fn yield_round_trips_with_two_threads() {
        let mut k = kernel(ProtectionConfig::full());
        let tid = k.dispatch(Sysno::Spawn as u64, [0, 0, 0]).unwrap();
        assert_eq!(tid, 1);
        // Yield bounces to thread 1 and back.
        k.dispatch(Sysno::Yield as u64, [0; 3]).unwrap();
        assert_eq!(k.current_tid(), 1);
        k.dispatch(Sysno::Yield as u64, [0; 3]).unwrap();
        assert_eq!(k.current_tid(), 0);
    }

    #[test]
    fn reset_stats_restarts_the_running_timeslice() {
        // The timeslice anchor is reset together with the cycle counter, so
        // the first slice after a reset runs from the reset instead of
        // underflowing against a switch made before it.
        let mut k = kernel(ProtectionConfig::full());
        k.dispatch(Sysno::Spawn as u64, [0, 0, 0]).unwrap();
        k.dispatch(Sysno::Yield as u64, [0; 3]).unwrap();
        k.machine_mut().reset_stats();
        k.dispatch(Sysno::Yield as u64, [0; 3]).unwrap();
        let stats = k.machine().stats();
        assert_eq!(stats.sched_context_switches, 1);
        let slice = stats.timeslice_cycles.max().expect("one timeslice");
        assert!(
            slice > 0 && slice <= stats.cycles,
            "slice {slice} of {} cycles",
            stats.cycles
        );
    }

    #[test]
    fn rop_on_kernel_stack_is_neutralized() {
        let mut k = kernel(ProtectionConfig::ra_only());
        let slot = k.push_kframe(42).unwrap();
        // Attacker overwrites the saved RA with a gadget address.
        let gadget = KERNEL_TEXT_BASE + 0xBEEF;
        k.machine_mut()
            .memory_mut()
            .write_u64(slot, gadget)
            .unwrap();
        match k.pop_kframe(42).unwrap_err() {
            KernelError::WildJump { target } => assert_ne!(target, gadget),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn rop_on_kernel_stack_succeeds_without_protection() {
        let mut k = kernel(ProtectionConfig::off());
        let slot = k.push_kframe(42).unwrap();
        let gadget = KERNEL_TEXT_BASE + 0xBEEF;
        k.machine_mut()
            .memory_mut()
            .write_u64(slot, gadget)
            .unwrap();
        match k.pop_kframe(42).unwrap_err() {
            KernelError::WildJump { target } => assert_eq!(target, gadget),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn protected_kernel_costs_more_cycles_than_baseline() {
        let mut base = kernel(ProtectionConfig::off());
        let mut full = kernel(ProtectionConfig::full());
        base.machine_mut().reset_stats();
        full.machine_mut().reset_stats();
        for _ in 0..100 {
            base.sys_getuid().unwrap();
            full.sys_getuid().unwrap();
        }
        let base_cycles = base.machine().stats().cycles;
        let full_cycles = full.machine().stats().cycles;
        assert!(full_cycles > base_cycles);
        let overhead = (full_cycles - base_cycles) as f64 / base_cycles as f64;
        assert!(
            overhead < 0.30,
            "protection overhead should be modest, got {overhead:.3}"
        );
    }
}
