//! User credentials (`struct cred`), §3.2.2 of the paper.
//!
//! Attackers escalate privileges by overwriting the uid/gid fields of
//! `cred` with zero. RegVault randomizes the fields with integrity
//! protection (`__rand_integrity`), so a corrupted field raises an
//! integrity exception instead of yielding root.
//!
//! Layout of one cred object in guest memory (storage sizes already
//! expanded for ciphertext blocks, as the annotation macros do):
//!
//! ```text
//! +0   usage        u64   (plain refcount)
//! +8   uid          u32 __rand_integrity  (one 64-bit block)
//! +16  gid          u32 __rand_integrity
//! +24  euid         u32 __rand_integrity
//! +32  egid         u32 __rand_integrity
//! +40  session      u64 __rand_integrity  (two blocks, Figure 2c)
//! ```

use regvault_sim::Machine;

use crate::config::ProtectionConfig;
use crate::error::KernelError;
use crate::layout::Kmalloc;
use crate::pfield;

/// Size of one cred object in guest memory.
pub const CRED_SIZE: u64 = 56;

/// Byte offset of the `uid` field inside a cred object.
pub const UID_OFFSET: u64 = 8;
/// Byte offset of the `gid` field.
pub const GID_OFFSET: u64 = 16;
/// Byte offset of the `euid` field.
pub const EUID_OFFSET: u64 = 24;
/// Byte offset of the `egid` field.
pub const EGID_OFFSET: u64 = 32;
/// Byte offset of the 64-bit `session` token (occupies two ciphertext
/// blocks when protected, per Figure 2c of the paper).
pub const SESSION_OFFSET: u64 = 40;

/// The four protected credential fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum CredField {
    Uid,
    Gid,
    Euid,
    Egid,
}

impl CredField {
    fn offset(self) -> u64 {
        match self {
            CredField::Uid => UID_OFFSET,
            CredField::Gid => GID_OFFSET,
            CredField::Euid => EUID_OFFSET,
            CredField::Egid => EGID_OFFSET,
        }
    }

    fn what(self) -> &'static str {
        match self {
            CredField::Uid => "cred.uid",
            CredField::Gid => "cred.gid",
            CredField::Euid => "cred.euid",
            CredField::Egid => "cred.egid",
        }
    }
}

/// A table of per-thread cred objects living in guest memory.
#[derive(Debug, Clone, Hash)]
pub struct CredStore {
    pub(crate) base: u64,
    slots: u32,
}

impl CredStore {
    /// Allocates room for `slots` cred objects on the kernel heap.
    #[must_use]
    pub fn new(heap: &mut Kmalloc, slots: u32) -> Self {
        let base = heap.alloc(CRED_SIZE * u64::from(slots), 8);
        Self { base, slots }
    }

    /// Guest address of thread `tid`'s cred object — the location an
    /// attacker with arbitrary write targets.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    #[must_use]
    pub fn cred_addr(&self, tid: u32) -> u64 {
        assert!(tid < self.slots, "tid out of range");
        self.base + CRED_SIZE * u64::from(tid)
    }

    /// Initializes a cred object (at thread creation).
    ///
    /// # Errors
    ///
    /// Propagates guest-memory faults.
    pub fn init(
        &self,
        machine: &mut Machine,
        cfg: &ProtectionConfig,
        tid: u32,
        uid: u32,
        gid: u32,
    ) -> Result<(), KernelError> {
        let addr = self.cred_addr(tid);
        machine.kernel_store_u64(addr, 1)?; // usage refcount
        for (field, value) in [
            (CredField::Uid, uid),
            (CredField::Gid, gid),
            (CredField::Euid, uid),
            (CredField::Egid, gid),
        ] {
            self.write(machine, cfg, tid, field, value)?;
        }
        let token = (u64::from(uid) << 32) | u64::from(tid) | 0x5E55_0000;
        self.write_session(machine, cfg, tid, token)?;
        Ok(())
    }

    /// Reads a credential field, verifying integrity when protected.
    ///
    /// # Errors
    ///
    /// [`KernelError::IntegrityViolation`] if the stored block was
    /// corrupted or substituted.
    pub fn read(
        &self,
        machine: &mut Machine,
        cfg: &ProtectionConfig,
        tid: u32,
        field: CredField,
    ) -> Result<u32, KernelError> {
        let addr = self.cred_addr(tid) + field.offset();
        pfield::read_u32(
            machine,
            cfg.key_policy().data,
            addr,
            cfg.non_control,
            field.what(),
        )
    }

    /// Writes a credential field (kernel-internal path, e.g. `setuid`).
    ///
    /// # Errors
    ///
    /// Propagates guest-memory faults.
    pub fn write(
        &self,
        machine: &mut Machine,
        cfg: &ProtectionConfig,
        tid: u32,
        field: CredField,
        value: u32,
    ) -> Result<(), KernelError> {
        let addr = self.cred_addr(tid) + field.offset();
        pfield::write_u32(machine, cfg.key_policy().data, addr, value, cfg.non_control)
    }

    /// Writes the 64-bit session token (integrity-protected as two split
    /// blocks when non-control protection is on — the Figure 2c pattern).
    ///
    /// # Errors
    ///
    /// Propagates guest-memory faults.
    pub fn write_session(
        &self,
        machine: &mut Machine,
        cfg: &ProtectionConfig,
        tid: u32,
        token: u64,
    ) -> Result<(), KernelError> {
        let addr = self.cred_addr(tid) + SESSION_OFFSET;
        pfield::write_u64_integrity(machine, cfg.key_policy().data, addr, token, cfg.non_control)
    }

    /// Reads the 64-bit session token, verifying both halves.
    ///
    /// # Errors
    ///
    /// [`KernelError::IntegrityViolation`] on corruption or half-swaps.
    pub fn read_session(
        &self,
        machine: &mut Machine,
        cfg: &ProtectionConfig,
        tid: u32,
    ) -> Result<u64, KernelError> {
        let addr = self.cred_addr(tid) + SESSION_OFFSET;
        pfield::read_u64_integrity(
            machine,
            cfg.key_policy().data,
            addr,
            cfg.non_control,
            "cred.session",
        )
    }

    /// The kernel's capability check: does `tid` run as root?
    ///
    /// # Errors
    ///
    /// Propagates integrity violations from the euid read.
    pub fn is_root(
        &self,
        machine: &mut Machine,
        cfg: &ProtectionConfig,
        tid: u32,
    ) -> Result<bool, KernelError> {
        Ok(self.read(machine, cfg, tid, CredField::Euid)? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regvault_isa::KeyReg;
    use regvault_sim::MachineConfig;

    fn setup(cfg: &ProtectionConfig) -> (Machine, CredStore) {
        let mut machine = Machine::new(MachineConfig::default());
        machine.write_key_register(KeyReg::D, 0xD0, 0xD1).unwrap();
        let mut heap = Kmalloc::new();
        let store = CredStore::new(&mut heap, 4);
        store.init(&mut machine, cfg, 0, 1000, 1000).unwrap();
        (machine, store)
    }

    #[test]
    fn read_back_initial_values() {
        let cfg = ProtectionConfig::full();
        let (mut machine, store) = setup(&cfg);
        assert_eq!(
            store.read(&mut machine, &cfg, 0, CredField::Uid).unwrap(),
            1000
        );
        assert!(!store.is_root(&mut machine, &cfg, 0).unwrap());
    }

    #[test]
    fn uid_is_randomized_in_memory_when_protected() {
        let cfg = ProtectionConfig::full();
        let (machine, store) = setup(&cfg);
        let raw = machine
            .memory()
            .read_u64(store.cred_addr(0) + UID_OFFSET)
            .unwrap();
        assert_ne!(raw, 1000);
    }

    #[test]
    fn uid_is_plaintext_when_unprotected() {
        let cfg = ProtectionConfig::off();
        let (machine, store) = setup(&cfg);
        let raw = machine
            .memory()
            .read_u64(store.cred_addr(0) + UID_OFFSET)
            .unwrap();
        assert_eq!(raw, 1000);
    }

    #[test]
    fn privilege_escalation_write_is_detected() {
        let cfg = ProtectionConfig::full();
        let (mut machine, store) = setup(&cfg);
        // Attacker overwrites euid with 0 (root).
        machine
            .memory_mut()
            .write_u64(store.cred_addr(0) + EUID_OFFSET, 0)
            .unwrap();
        assert!(matches!(
            store.is_root(&mut machine, &cfg, 0),
            Err(KernelError::IntegrityViolation { what: "cred.euid" })
        ));
    }

    #[test]
    fn privilege_escalation_succeeds_without_protection() {
        let cfg = ProtectionConfig::off();
        let (mut machine, store) = setup(&cfg);
        machine
            .memory_mut()
            .write_u64(store.cred_addr(0) + EUID_OFFSET, 0)
            .unwrap();
        assert!(store.is_root(&mut machine, &cfg, 0).unwrap());
    }

    #[test]
    fn session_token_round_trips_and_detects_corruption() {
        let cfg = ProtectionConfig::full();
        let (mut machine, store) = setup(&cfg);
        store
            .write_session(&mut machine, &cfg, 0, 0xDEAD_BEEF_CAFE_F00D)
            .unwrap();
        assert_eq!(
            store.read_session(&mut machine, &cfg, 0).unwrap(),
            0xDEAD_BEEF_CAFE_F00D
        );
        // Corrupt the high half block only.
        let addr = store.cred_addr(0) + SESSION_OFFSET + 8;
        let ct = machine.memory().read_u64(addr).unwrap();
        machine.memory_mut().write_u64(addr, ct ^ 1).unwrap();
        assert!(matches!(
            store.read_session(&mut machine, &cfg, 0),
            Err(KernelError::IntegrityViolation {
                what: "cred.session"
            })
        ));
    }

    #[test]
    fn session_token_halves_cannot_be_swapped() {
        let cfg = ProtectionConfig::full();
        let (mut machine, store) = setup(&cfg);
        store
            .write_session(&mut machine, &cfg, 0, 0x1111_2222_3333_4444)
            .unwrap();
        let base = store.cred_addr(0) + SESSION_OFFSET;
        let lo = machine.memory().read_u64(base).unwrap();
        let hi = machine.memory().read_u64(base + 8).unwrap();
        machine.memory_mut().write_u64(base, hi).unwrap();
        machine.memory_mut().write_u64(base + 8, lo).unwrap();
        assert!(store.read_session(&mut machine, &cfg, 0).is_err());
    }

    #[test]
    fn cross_slot_substitution_is_detected() {
        // Copy root's encrypted uid block into another thread's cred: the
        // address tweak differs, so the integrity check fires.
        let cfg = ProtectionConfig::full();
        let (mut machine, store) = setup(&cfg);
        store.init(&mut machine, &cfg, 1, 0, 0).unwrap(); // a root thread
        let root_block = machine
            .memory()
            .read_u64(store.cred_addr(1) + EUID_OFFSET)
            .unwrap();
        machine
            .memory_mut()
            .write_u64(store.cred_addr(0) + EUID_OFFSET, root_block)
            .unwrap();
        assert!(store.is_root(&mut machine, &cfg, 0).is_err());
    }
}
