//! Threads, per-thread keys, and context switching (§3.1.1 of the paper).
//!
//! Each thread gets its own return-address key and interrupt (CIP) key.
//! The keys are generated at thread creation, written to the hardware key
//! registers on context switch, and parked in `thread_info` **encrypted
//! under the master key** — the one key no software can read — so a memory
//! disclosure of `thread_info` yields only wrapped key material.

use rand::Rng;
use regvault_isa::{ByteRange, KeyReg};
use regvault_sim::{Machine, ModelledPath};

use crate::config::ProtectionConfig;
use crate::error::KernelError;
use crate::layout::{kernel_stack_top, Kmalloc};
use crate::trap;

/// Maximum live threads.
pub const MAX_THREADS: u32 = 8;

/// `thread_info` layout offsets.
mod ti {
    pub const TID: u64 = 0;
    pub const STATE: u64 = 8;
    pub const RA_KEY_LO: u64 = 16;
    pub const RA_KEY_HI: u64 = 24;
    pub const CIP_KEY_LO: u64 = 32;
    pub const CIP_KEY_HI: u64 = 40;
    pub const KSTACK: u64 = 48;
    pub const FRAME: u64 = 56;
    pub const SIZE: u64 = 64;
}

/// Thread states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum ThreadState {
    Free = 0,
    Runnable = 1,
    Current = 2,
    Dead = 3,
    /// The thread tripped an integrity check (or faulted unrecoverably) and
    /// has been taken out of scheduling. Its slot is retained — not reused —
    /// until the kernel [reaps](ThreadTable::reap) it, so a corrupted frame
    /// or key cannot leak into a successor thread.
    Quarantined = 4,
}

/// The thread table: `thread_info` objects in guest memory plus scheduler
/// bookkeeping.
#[derive(Debug, Clone, Hash)]
pub struct ThreadTable {
    base: u64,
    pub(crate) states: Vec<ThreadState>,
    /// The currently running thread.
    pub current: u32,
}

impl ThreadTable {
    /// Allocates the table.
    #[must_use]
    pub fn new(heap: &mut Kmalloc) -> Self {
        Self {
            base: heap.alloc(ti::SIZE * u64::from(MAX_THREADS), 8),
            states: vec![ThreadState::Free; MAX_THREADS as usize],
            current: 0,
        }
    }

    /// Guest address of thread `tid`'s `thread_info`.
    #[must_use]
    pub fn thread_info_addr(&self, tid: u32) -> u64 {
        self.base + ti::SIZE * u64::from(tid)
    }

    /// Guest address of thread `tid`'s interrupt frame (on its kernel
    /// stack).
    #[must_use]
    pub fn interrupt_frame_addr(&self, tid: u32) -> u64 {
        kernel_stack_top(tid) - trap::FRAME_SIZE
    }

    /// State of thread `tid`.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    #[must_use]
    pub fn state(&self, tid: u32) -> ThreadState {
        self.states[tid as usize]
    }

    /// Creates a thread: generates and wraps its keys, initializes
    /// `thread_info`.
    ///
    /// # Errors
    ///
    /// [`KernelError::ThreadTableFull`] when no slot is free — a typed,
    /// recoverable condition so a supervisor can treat a denied respawn as
    /// a degradation event rather than a crash.
    pub fn spawn(
        &mut self,
        machine: &mut Machine,
        cfg: &ProtectionConfig,
        rng: &mut impl Rng,
    ) -> Result<u32, KernelError> {
        let tid = self
            .states
            .iter()
            .position(|s| *s == ThreadState::Free)
            .ok_or(KernelError::ThreadTableFull)? as u32;
        self.states[tid as usize] = ThreadState::Runnable;
        let info = self.thread_info_addr(tid);
        machine.kernel_store_u64(info + ti::TID, u64::from(tid))?;
        machine.kernel_store_u64(info + ti::STATE, ThreadState::Runnable as u64)?;
        machine.kernel_store_u64(info + ti::KSTACK, kernel_stack_top(tid))?;
        machine.kernel_store_u64(info + ti::FRAME, self.interrupt_frame_addr(tid))?;
        // Generate the per-thread RA and CIP keys; wrap each 64-bit half
        // under the master key with the storage address as tweak, so the
        // in-memory copies are useless to a memory-disclosure attacker.
        // (The unprotected baseline kernel has no per-thread keys at all.)
        if cfg.ra || cfg.cip {
            for offset in [ti::RA_KEY_LO, ti::RA_KEY_HI, ti::CIP_KEY_LO, ti::CIP_KEY_HI] {
                let half: u64 = rng.gen();
                let addr = info + offset;
                let wrapped = machine.kernel_encrypt(KeyReg::M, addr, half, ByteRange::FULL);
                machine.kernel_store_u64(addr, wrapped)?;
            }
        }
        machine.charge_modelled(ModelledPath::ThreadCreate, 1);
        Ok(tid)
    }

    /// Unwraps one wrapped key half from `thread_info`.
    ///
    /// A full-range decrypt has no redundancy, so this cannot *detect*
    /// tampering: a corrupted wrapped half unwraps to garbage, and the
    /// thread's subsequent CIP restore fails its own integrity check. Both
    /// arms of the decrypt therefore yield the plaintext.
    fn unwrap_half(machine: &mut Machine, addr: u64) -> Result<u64, KernelError> {
        let wrapped = machine.kernel_load_u64(addr)?;
        Ok(machine
            .kernel_decrypt(KeyReg::M, addr, wrapped, ByteRange::FULL)
            .unwrap_or_else(|garbled| garbled))
    }

    /// Loads thread `tid`'s keys into the hardware key registers — the
    /// context-switch path. Each write invalidates the matching CLB
    /// entries, exactly as the hardware does.
    ///
    /// # Errors
    ///
    /// Propagates guest-memory faults.
    pub fn install_keys(
        &self,
        machine: &mut Machine,
        cfg: &ProtectionConfig,
        tid: u32,
    ) -> Result<(), KernelError> {
        let info = self.thread_info_addr(tid);
        if cfg.ra {
            let lo = Self::unwrap_half(machine, info + ti::RA_KEY_LO)?;
            let hi = Self::unwrap_half(machine, info + ti::RA_KEY_HI)?;
            machine
                .write_key_register(cfg.key_policy().return_addr, hi, lo)
                .expect("ra key register is general-purpose");
        }
        if cfg.cip {
            let lo = Self::unwrap_half(machine, info + ti::CIP_KEY_LO)?;
            let hi = Self::unwrap_half(machine, info + ti::CIP_KEY_HI)?;
            machine
                .write_key_register(cfg.key_policy().interrupt, hi, lo)
                .expect("cip key register is general-purpose");
        }
        Ok(())
    }

    /// Marks a thread dead and its slot free for reuse.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn free(&mut self, tid: u32) {
        self.states[tid as usize] = ThreadState::Free;
    }

    /// Takes a faulted thread out of scheduling without reusing its slot.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn quarantine(&mut self, tid: u32) {
        self.states[tid as usize] = ThreadState::Quarantined;
    }

    /// Releases a quarantined (or dead) thread's slot for reuse. The next
    /// [`ThreadTable::spawn`] into the slot rewrites `thread_info` and
    /// generates fresh keys, so nothing corrupt survives into the
    /// successor.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn reap(&mut self, tid: u32) {
        self.states[tid as usize] = ThreadState::Free;
    }

    /// Picks the next runnable thread after `current` (round robin).
    #[must_use]
    pub fn next_runnable(&self) -> u32 {
        let n = MAX_THREADS;
        for step in 1..=n {
            let candidate = (self.current + step) % n;
            if matches!(
                self.states[candidate as usize],
                ThreadState::Runnable | ThreadState::Current
            ) {
                return candidate;
            }
        }
        self.current
    }

    /// Performs a context switch: CIP-save the current thread's registers,
    /// switch identity, install the new thread's keys, CIP-restore its
    /// registers (if it has ever been saved).
    ///
    /// # Errors
    ///
    /// [`KernelError::IntegrityViolation`] when the incoming thread's
    /// saved context was tampered with.
    pub fn context_switch(
        &mut self,
        machine: &mut Machine,
        cfg: &ProtectionConfig,
        to: u32,
    ) -> Result<(), KernelError> {
        let from = self.current;
        machine.charge_modelled(ModelledPath::SchedulerCore, 1);
        let cip_key = cfg.key_policy().interrupt;
        trap::save_context(machine, cfg, cip_key, self.interrupt_frame_addr(from))?;
        self.states[from as usize] = ThreadState::Runnable;
        self.current = to;
        self.states[to as usize] = ThreadState::Current;
        // Key registers are per-thread state: reload (and invalidate the
        // matching CLB entries) only when the thread actually changes.
        if to != from {
            self.install_keys(machine, cfg, to)?;
        }
        let had_frame = machine
            .memory()
            .read_u64(self.interrupt_frame_addr(to))
            .is_ok();
        if had_frame && to != from {
            let regs = trap::restore_context(machine, cfg, cip_key, self.interrupt_frame_addr(to))?;
            trap::apply_to_hart(machine, &regs);
        } else if to == from {
            let regs =
                trap::restore_context(machine, cfg, cip_key, self.interrupt_frame_addr(from))?;
            trap::apply_to_hart(machine, &regs);
        }
        Ok(())
    }

    /// Switches to `to` *without* CIP-saving the outgoing thread — the
    /// recovery path after the current thread has been quarantined. Its
    /// registers and frame are untrusted (possibly the corrupted object
    /// itself), so nothing of it is persisted; the caller has already
    /// marked it [`ThreadState::Quarantined`].
    ///
    /// `current` is updated *before* the incoming thread's frame is
    /// restored, so if that restore itself trips an integrity check the
    /// kernel can quarantine `to` in turn and keep iterating.
    ///
    /// # Errors
    ///
    /// [`KernelError::IntegrityViolation`] when the incoming thread's
    /// saved context was tampered with.
    pub fn switch_abandon(
        &mut self,
        machine: &mut Machine,
        cfg: &ProtectionConfig,
        to: u32,
    ) -> Result<(), KernelError> {
        let from = self.current;
        machine.charge_modelled(ModelledPath::SchedulerCore, 1);
        self.current = to;
        self.states[to as usize] = ThreadState::Current;
        if to != from {
            self.install_keys(machine, cfg, to)?;
        }
        let frame = self.interrupt_frame_addr(to);
        if machine.memory().read_u64(frame).is_ok() {
            let regs = trap::restore_context(machine, cfg, cfg.key_policy().interrupt, frame)?;
            trap::apply_to_hart(machine, &regs);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use regvault_sim::MachineConfig;

    fn setup() -> (Machine, ThreadTable, rand::rngs::StdRng) {
        let mut machine = Machine::new(MachineConfig::default());
        for key in [KeyReg::A, KeyReg::B, KeyReg::C, KeyReg::D, KeyReg::E] {
            machine.write_key_register(key, 7, 9).unwrap();
        }
        let mut heap = Kmalloc::new();
        let table = ThreadTable::new(&mut heap);
        (machine, table, rand::rngs::StdRng::seed_from_u64(11))
    }

    #[test]
    fn spawn_assigns_sequential_tids() {
        let (mut machine, mut table, mut rng) = setup();
        assert_eq!(
            table
                .spawn(&mut machine, &ProtectionConfig::full(), &mut rng)
                .unwrap(),
            0
        );
        assert_eq!(
            table
                .spawn(&mut machine, &ProtectionConfig::full(), &mut rng)
                .unwrap(),
            1
        );
        assert_eq!(table.state(1), ThreadState::Runnable);
    }

    #[test]
    fn wrapped_keys_are_not_plaintext() {
        let (mut machine, mut table, mut rng) = setup();
        // Two spawns with the same RNG stream would produce the same raw
        // halves; the wrapped forms must not equal the raw values.
        let tid = table
            .spawn(&mut machine, &ProtectionConfig::full(), &mut rng)
            .unwrap();
        let info = table.thread_info_addr(tid);
        let wrapped = machine.memory().read_u64(info + 16).unwrap();
        // Unwrap through the master key and compare.
        let unwrapped = machine
            .kernel_decrypt(KeyReg::M, info + 16, wrapped, ByteRange::FULL)
            .unwrap();
        assert_ne!(wrapped, unwrapped);
    }

    #[test]
    fn install_keys_changes_ra_ciphertexts() {
        let (mut machine, mut table, mut rng) = setup();
        let cfg = ProtectionConfig::full();
        let t0 = table
            .spawn(&mut machine, &ProtectionConfig::full(), &mut rng)
            .unwrap();
        let t1 = table
            .spawn(&mut machine, &ProtectionConfig::full(), &mut rng)
            .unwrap();
        table.install_keys(&mut machine, &cfg, t0).unwrap();
        let ct0 =
            machine.kernel_encrypt(cfg.key_policy().return_addr, 0x40, 0x1234, ByteRange::FULL);
        table.install_keys(&mut machine, &cfg, t1).unwrap();
        let ct1 =
            machine.kernel_encrypt(cfg.key_policy().return_addr, 0x40, 0x1234, ByteRange::FULL);
        assert_ne!(ct0, ct1, "each thread encrypts RAs under its own key");
    }

    #[test]
    fn context_switch_round_trips_registers() {
        let (mut machine, mut table, mut rng) = setup();
        let cfg = ProtectionConfig::full();
        let t0 = table
            .spawn(&mut machine, &ProtectionConfig::full(), &mut rng)
            .unwrap();
        let _t1 = table
            .spawn(&mut machine, &ProtectionConfig::full(), &mut rng)
            .unwrap();
        table.install_keys(&mut machine, &cfg, t0).unwrap();
        table.current = t0;
        machine.hart_mut().set_reg(regvault_isa::Reg::S1, 0xABCD);
        // Switch away and back.
        table.context_switch(&mut machine, &cfg, 1).unwrap();
        machine.hart_mut().set_reg(regvault_isa::Reg::S1, 0);
        table.context_switch(&mut machine, &cfg, 0).unwrap();
        assert_eq!(machine.hart().reg(regvault_isa::Reg::S1), 0xABCD);
    }

    #[test]
    fn quarantined_threads_are_skipped_then_reaped() {
        let (mut machine, mut table, mut rng) = setup();
        let cfg = ProtectionConfig::full();
        for _ in 0..3 {
            table.spawn(&mut machine, &cfg, &mut rng).unwrap();
        }
        table.current = 0;
        table.quarantine(1);
        assert_eq!(table.next_runnable(), 2, "quarantined slot is skipped");
        assert_eq!(table.state(1), ThreadState::Quarantined);
        // The slot is not reused while quarantined...
        assert_eq!(table.spawn(&mut machine, &cfg, &mut rng).unwrap(), 3);
        // ...and becomes reusable after the reap.
        table.reap(1);
        assert_eq!(table.spawn(&mut machine, &cfg, &mut rng).unwrap(), 1);
    }

    #[test]
    fn switch_abandon_discards_the_faulted_context() {
        let (mut machine, mut table, mut rng) = setup();
        let cfg = ProtectionConfig::full();
        let t0 = table.spawn(&mut machine, &cfg, &mut rng).unwrap();
        let t1 = table.spawn(&mut machine, &cfg, &mut rng).unwrap();
        table.install_keys(&mut machine, &cfg, t0).unwrap();
        table.current = t0;
        // Park t1 with a known register value, come back to t0.
        machine.hart_mut().set_reg(regvault_isa::Reg::S1, 0x1111);
        table.context_switch(&mut machine, &cfg, t1).unwrap();
        machine.hart_mut().set_reg(regvault_isa::Reg::S1, 0x2222);
        table.context_switch(&mut machine, &cfg, t0).unwrap();
        // t0 faults: quarantine and abandon its registers entirely.
        machine.hart_mut().set_reg(regvault_isa::Reg::S1, 0xBAAD);
        table.quarantine(t0);
        table.switch_abandon(&mut machine, &cfg, t1).unwrap();
        assert_eq!(table.current, t1);
        assert_eq!(
            machine.hart().reg(regvault_isa::Reg::S1),
            0x2222,
            "incoming thread's saved context is restored"
        );
        // t0's frame was never re-saved with the poisoned register.
        table.reap(t0);
    }

    #[test]
    fn next_runnable_round_robins() {
        let (mut machine, mut table, mut rng) = setup();
        table
            .spawn(&mut machine, &ProtectionConfig::full(), &mut rng)
            .unwrap();
        table
            .spawn(&mut machine, &ProtectionConfig::full(), &mut rng)
            .unwrap();
        table
            .spawn(&mut machine, &ProtectionConfig::full(), &mut rng)
            .unwrap();
        table.current = 0;
        assert_eq!(table.next_runnable(), 1);
        table.current = 2;
        assert_eq!(table.next_runnable(), 0);
    }
}
