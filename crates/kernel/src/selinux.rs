//! The `selinux_state` security switches, §3.2.3 of the paper.
//!
//! Real-world attacks disable SELinux by overwriting `selinux_enforcing` /
//! `ss_initialized` (gathered into `struct selinux_state` in modern
//! kernels). RegVault randomizes every non-lock field of the struct with
//! integrity protection.
//!
//! Guest layout (ciphertext-expanded):
//!
//! ```text
//! +0   lock         u64 (plain — locks are excluded by the paper)
//! +8   enforcing    u32 __rand_integrity
//! +16  initialized  u32 __rand_integrity
//! +24  policy_id    u32 __rand_integrity
//! ```

use regvault_sim::Machine;

use crate::config::ProtectionConfig;
use crate::error::KernelError;
use crate::layout::Kmalloc;
use crate::pfield;

/// Offset of the `enforcing` field.
pub const ENFORCING_OFFSET: u64 = 8;
/// Offset of the `initialized` field.
pub const INITIALIZED_OFFSET: u64 = 16;
/// Offset of the `policy_id` field.
pub const POLICY_ID_OFFSET: u64 = 24;
/// Size of the state object.
pub const STATE_SIZE: u64 = 32;

/// The global `selinux_state` object in guest memory.
#[derive(Debug, Clone, Hash)]
pub struct SelinuxState {
    pub(crate) base: u64,
}

impl SelinuxState {
    /// Allocates and initializes the state (enforcing, initialized).
    ///
    /// # Errors
    ///
    /// Propagates guest-memory faults.
    pub fn new(
        heap: &mut Kmalloc,
        machine: &mut Machine,
        cfg: &ProtectionConfig,
    ) -> Result<Self, KernelError> {
        let base = heap.alloc(STATE_SIZE, 8);
        let state = Self { base };
        machine.kernel_store_u64(base, 0)?; // the (plain) lock word
        state.set_field(machine, cfg, ENFORCING_OFFSET, 1)?;
        state.set_field(machine, cfg, INITIALIZED_OFFSET, 1)?;
        state.set_field(machine, cfg, POLICY_ID_OFFSET, 7)?;
        Ok(state)
    }

    /// Guest address of the state object (the attacker's target).
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    fn set_field(
        &self,
        machine: &mut Machine,
        cfg: &ProtectionConfig,
        offset: u64,
        value: u32,
    ) -> Result<(), KernelError> {
        pfield::write_u32(
            machine,
            cfg.key_policy().data,
            self.base + offset,
            value,
            cfg.non_control,
        )
    }

    fn field(
        &self,
        machine: &mut Machine,
        cfg: &ProtectionConfig,
        offset: u64,
        what: &'static str,
    ) -> Result<u32, KernelError> {
        pfield::read_u32(
            machine,
            cfg.key_policy().data,
            self.base + offset,
            cfg.non_control,
            what,
        )
    }

    /// The access-vector-cache check every security-relevant syscall runs:
    /// returns `Ok(true)` when the operation is permitted.
    ///
    /// Mirrors the kernel logic: if SELinux is not initialized or not
    /// enforcing, everything is permitted — which is exactly why attackers
    /// target these fields.
    ///
    /// # Errors
    ///
    /// [`KernelError::IntegrityViolation`] when a state field was tampered
    /// with.
    pub fn avc_check(
        &self,
        machine: &mut Machine,
        cfg: &ProtectionConfig,
        permitted_by_policy: bool,
    ) -> Result<bool, KernelError> {
        let initialized = self.field(
            machine,
            cfg,
            INITIALIZED_OFFSET,
            "selinux_state.initialized",
        )?;
        if initialized == 0 {
            return Ok(true);
        }
        let enforcing = self.field(machine, cfg, ENFORCING_OFFSET, "selinux_state.enforcing")?;
        if enforcing == 0 {
            return Ok(true);
        }
        Ok(permitted_by_policy)
    }

    /// Reads the `enforcing` switch.
    ///
    /// # Errors
    ///
    /// [`KernelError::IntegrityViolation`] on tampering.
    pub fn enforcing(
        &self,
        machine: &mut Machine,
        cfg: &ProtectionConfig,
    ) -> Result<u32, KernelError> {
        self.field(machine, cfg, ENFORCING_OFFSET, "selinux_state.enforcing")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regvault_isa::KeyReg;
    use regvault_sim::MachineConfig;

    fn setup(cfg: &ProtectionConfig) -> (Machine, SelinuxState) {
        let mut machine = Machine::new(MachineConfig::default());
        machine.write_key_register(KeyReg::D, 0xD0, 0xD1).unwrap();
        let mut heap = Kmalloc::new();
        let state = SelinuxState::new(&mut heap, &mut machine, cfg).unwrap();
        (machine, state)
    }

    #[test]
    fn enforcing_denies_unpermitted_operations() {
        let cfg = ProtectionConfig::full();
        let (mut machine, state) = setup(&cfg);
        assert!(!state.avc_check(&mut machine, &cfg, false).unwrap());
        assert!(state.avc_check(&mut machine, &cfg, true).unwrap());
    }

    #[test]
    fn selinux_bypass_by_overwrite_is_detected() {
        let cfg = ProtectionConfig::full();
        let (mut machine, state) = setup(&cfg);
        // The Di Shen attack: zero `initialized` to disable SELinux.
        machine
            .memory_mut()
            .write_u64(state.base() + INITIALIZED_OFFSET, 0)
            .unwrap();
        assert!(matches!(
            state.avc_check(&mut machine, &cfg, false),
            Err(KernelError::IntegrityViolation {
                what: "selinux_state.initialized"
            })
        ));
    }

    #[test]
    fn selinux_bypass_succeeds_without_protection() {
        let cfg = ProtectionConfig::off();
        let (mut machine, state) = setup(&cfg);
        machine
            .memory_mut()
            .write_u64(state.base() + INITIALIZED_OFFSET, 0)
            .unwrap();
        // Everything is now permitted — the bypass works on the baseline.
        assert!(state.avc_check(&mut machine, &cfg, false).unwrap());
    }

    #[test]
    fn enforcing_zeroing_is_detected_when_protected() {
        let cfg = ProtectionConfig::full();
        let (mut machine, state) = setup(&cfg);
        machine
            .memory_mut()
            .write_u64(state.base() + ENFORCING_OFFSET, 0)
            .unwrap();
        assert!(state.avc_check(&mut machine, &cfg, false).is_err());
    }
}
