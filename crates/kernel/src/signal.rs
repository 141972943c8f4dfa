//! Signals: user-registered handlers dispatched by the kernel.
//!
//! Signal handlers are the classic *userspace-supplied function pointer
//! stored in kernel memory*: `sigaction` writes a handler address into the
//! task's signal table, and delivery jumps to it. An attacker who can
//! overwrite the table redirects the next signal to arbitrary code, so
//! RegVault randomizes the stored handler pointers like every other
//! function pointer (dedicated key, storage-address tweak).
//!
//! The model keeps a per-thread table of [`NUM_SIGNALS`] handler slots in
//! guest memory plus a pending bitmask; delivery happens when the kernel
//! returns to user mode.

use regvault_sim::{Machine, ModelledPath};

use crate::config::ProtectionConfig;
use crate::error::KernelError;
use crate::layout::Kmalloc;
use crate::pfield;
use crate::thread::MAX_THREADS;

/// Number of signal slots per thread.
pub const NUM_SIGNALS: u64 = 8;

/// Per-thread signal state in guest memory:
///
/// ```text
/// +0                pending bitmask (u64, plain)
/// +8 .. +8+8*N      handler pointers (protected like fn ptrs)
/// ```
#[derive(Debug, Clone, Hash)]
pub struct SignalTable {
    pub(crate) base: u64,
}

const ENTRY_SIZE: u64 = 8 + 8 * NUM_SIGNALS;

impl SignalTable {
    /// Allocates signal state for every thread.
    #[must_use]
    pub fn new(heap: &mut Kmalloc) -> Self {
        Self {
            base: heap.alloc(ENTRY_SIZE * u64::from(MAX_THREADS), 8),
        }
    }

    fn entry(&self, tid: u32) -> u64 {
        self.base + ENTRY_SIZE * u64::from(tid)
    }

    /// Guest address of the handler slot for (`tid`, `signo`) — the
    /// attacker's overwrite target.
    ///
    /// # Panics
    ///
    /// Panics if `signo` is out of range.
    #[must_use]
    pub fn handler_slot(&self, tid: u32, signo: u64) -> u64 {
        assert!(signo < NUM_SIGNALS, "signo out of range");
        self.entry(tid) + 8 + 8 * signo
    }

    /// `sigaction`: registers a user handler for `signo`.
    ///
    /// # Errors
    ///
    /// [`KernelError::InvalidArgument`] for out-of-range signals;
    /// guest-memory faults otherwise.
    pub fn register(
        &self,
        machine: &mut Machine,
        cfg: &ProtectionConfig,
        tid: u32,
        signo: u64,
        handler: u64,
    ) -> Result<(), KernelError> {
        if signo >= NUM_SIGNALS {
            return Err(KernelError::InvalidArgument);
        }
        let slot = self.handler_slot(tid, signo);
        pfield::write_u64_conf(machine, cfg.key_policy().fn_ptr, slot, handler, cfg.fp)?;
        machine.charge_modelled(ModelledPath::SigactionInstall, 1);
        Ok(())
    }

    /// `kill`: marks `signo` pending for `tid`.
    ///
    /// # Errors
    ///
    /// [`KernelError::InvalidArgument`] for out-of-range signals.
    pub fn raise(&self, machine: &mut Machine, tid: u32, signo: u64) -> Result<(), KernelError> {
        if signo >= NUM_SIGNALS {
            return Err(KernelError::InvalidArgument);
        }
        let mask_addr = self.entry(tid);
        let mask = machine.kernel_load_u64(mask_addr)?;
        machine.kernel_store_u64(mask_addr, mask | (1 << signo))?;
        machine.charge_modelled(ModelledPath::SignalRaise, 1);
        Ok(())
    }

    /// Delivery: takes the lowest pending signal (if any), clears it, and
    /// resolves its handler — the decrypted target control flow will jump
    /// to.
    ///
    /// # Errors
    ///
    /// Propagates guest-memory faults. Returns `Ok(None)` when nothing is
    /// pending or no handler is registered.
    pub fn deliver(
        &self,
        machine: &mut Machine,
        cfg: &ProtectionConfig,
        tid: u32,
    ) -> Result<Option<(u64, u64)>, KernelError> {
        let mask_addr = self.entry(tid);
        let mask = machine.kernel_load_u64(mask_addr)?;
        if mask == 0 {
            return Ok(None);
        }
        let signo = u64::from(mask.trailing_zeros());
        machine.kernel_store_u64(mask_addr, mask & !(1 << signo))?;
        let slot = self.handler_slot(tid, signo);
        let handler = pfield::read_u64_conf(machine, cfg.key_policy().fn_ptr, slot, cfg.fp)?;
        machine.charge_modelled(ModelledPath::SignalDeliver, 1);
        if handler == 0 {
            return Ok(None);
        }
        Ok(Some((signo, handler)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regvault_isa::KeyReg;
    use regvault_sim::MachineConfig;

    fn setup(_cfg: &ProtectionConfig) -> (Machine, SignalTable) {
        let mut machine = Machine::new(MachineConfig::default());
        machine.write_key_register(KeyReg::B, 0xB0, 0xB1).unwrap();
        let mut heap = Kmalloc::new();
        let table = SignalTable::new(&mut heap);
        (machine, table)
    }

    #[test]
    fn register_raise_deliver_round_trip() {
        let cfg = ProtectionConfig::full();
        let (mut m, table) = setup(&cfg);
        table.register(&mut m, &cfg, 0, 3, 0x40_1000).unwrap();
        table.raise(&mut m, 0, 3).unwrap();
        let (signo, handler) = table.deliver(&mut m, &cfg, 0).unwrap().unwrap();
        assert_eq!((signo, handler), (3, 0x40_1000));
        // Delivered once: nothing pending afterwards.
        assert!(table.deliver(&mut m, &cfg, 0).unwrap().is_none());
    }

    #[test]
    fn lowest_signal_delivers_first() {
        let cfg = ProtectionConfig::full();
        let (mut m, table) = setup(&cfg);
        for signo in [5u64, 1, 7] {
            table
                .register(&mut m, &cfg, 0, signo, 0x40_0000 + signo * 16)
                .unwrap();
            table.raise(&mut m, 0, signo).unwrap();
        }
        let order: Vec<u64> =
            std::iter::from_fn(|| table.deliver(&mut m, &cfg, 0).unwrap().map(|(s, _)| s))
                .collect();
        assert_eq!(order, vec![1, 5, 7]);
    }

    #[test]
    fn handlers_are_randomized_in_memory_when_protected() {
        let cfg = ProtectionConfig::fp_only();
        let (mut m, table) = setup(&cfg);
        table.register(&mut m, &cfg, 0, 0, 0x40_2000).unwrap();
        let raw = m.memory().read_u64(table.handler_slot(0, 0)).unwrap();
        assert_ne!(raw, 0x40_2000);
    }

    #[test]
    fn overwritten_handler_garbles_under_protection() {
        let cfg = ProtectionConfig::fp_only();
        let (mut m, table) = setup(&cfg);
        table.register(&mut m, &cfg, 0, 0, 0x40_2000).unwrap();
        table.raise(&mut m, 0, 0).unwrap();
        // Attacker points the handler at shellcode.
        m.memory_mut()
            .write_u64(table.handler_slot(0, 0), 0x6666_6666)
            .unwrap();
        let (_, handler) = table.deliver(&mut m, &cfg, 0).unwrap().unwrap();
        assert_ne!(handler, 0x6666_6666, "redirect must be garbled");
    }

    #[test]
    fn overwritten_handler_wins_on_baseline() {
        let cfg = ProtectionConfig::off();
        let (mut m, table) = setup(&cfg);
        table.register(&mut m, &cfg, 0, 0, 0x40_2000).unwrap();
        table.raise(&mut m, 0, 0).unwrap();
        m.memory_mut()
            .write_u64(table.handler_slot(0, 0), 0x6666_6666)
            .unwrap();
        let (_, handler) = table.deliver(&mut m, &cfg, 0).unwrap().unwrap();
        assert_eq!(handler, 0x6666_6666, "baseline jumps to the attacker");
    }

    #[test]
    fn bad_signo_rejected() {
        let cfg = ProtectionConfig::full();
        let (mut m, table) = setup(&cfg);
        assert!(table.register(&mut m, &cfg, 0, NUM_SIGNALS, 1).is_err());
        assert!(table.raise(&mut m, 0, 99).is_err());
    }
}
