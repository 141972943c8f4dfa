//! Kernel keyrings with always-encrypted key material, §3.2.1 of the paper.
//!
//! Linux keyrings store cryptographic keys as plaintext, so any kernel
//! memory disclosure leaks them. RegVault keeps the material encrypted in
//! memory: keys are encrypted at setup time (storage-address tweak) and
//! decrypted into registers only inside the crypto-engine functions,
//! immediately after loading.
//!
//! Entry layout in guest memory (24 bytes):
//!
//! ```text
//! +0   serial   u64 (plain)
//! +8   key_lo   64-bit block (__rand when non-control protection is on)
//! +16  key_hi   64-bit block
//! ```

use regvault_sim::{Machine, ModelledPath};

use crate::aes::Aes128;
use crate::config::ProtectionConfig;
use crate::error::KernelError;
use crate::layout::Kmalloc;
use crate::pfield;

/// Bytes per keyring entry.
pub const ENTRY_SIZE: u64 = 24;

/// A table of kernel keys in guest memory.
#[derive(Debug, Clone, Hash)]
pub struct Keyring {
    base: u64,
    capacity: u32,
    pub(crate) count: u32,
}

impl Keyring {
    /// Allocates a keyring with room for `capacity` keys.
    #[must_use]
    pub fn new(heap: &mut Kmalloc, capacity: u32) -> Self {
        Self {
            base: heap.alloc(ENTRY_SIZE * u64::from(capacity), 8),
            capacity,
            count: 0,
        }
    }

    /// Number of keys currently installed.
    #[must_use]
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Guest address of entry `index` (attacker-visible).
    #[must_use]
    pub fn entry_addr(&self, index: u32) -> u64 {
        self.base + ENTRY_SIZE * u64::from(index)
    }

    /// Installs key material, returning its serial.
    ///
    /// With non-control protection the 16 bytes are encrypted under the
    /// data key before they ever reach memory.
    ///
    /// # Errors
    ///
    /// [`KernelError::ResourceExhausted`] when the ring is full.
    pub fn add_key(
        &mut self,
        machine: &mut Machine,
        cfg: &ProtectionConfig,
        material: [u8; 16],
    ) -> Result<u64, KernelError> {
        if self.count == self.capacity {
            return Err(KernelError::ResourceExhausted);
        }
        let index = self.count;
        self.count += 1;
        let serial = u64::from(index) + 1;
        let addr = self.entry_addr(index);
        let key = cfg.key_policy().data;
        let lo = u64::from_le_bytes(material[..8].try_into().expect("8 bytes"));
        let hi = u64::from_le_bytes(material[8..].try_into().expect("8 bytes"));
        machine.kernel_store_u64(addr, serial)?;
        pfield::write_u64_conf(machine, key, addr + 8, lo, cfg.non_control)?;
        pfield::write_u64_conf(machine, key, addr + 16, hi, cfg.non_control)?;
        Ok(serial)
    }

    /// Loads key material "into registers": the decryption happens right
    /// after the loads, never leaving plaintext in guest memory.
    ///
    /// # Errors
    ///
    /// [`KernelError::NotFound`] for unknown serials.
    pub fn load_key(
        &self,
        machine: &mut Machine,
        cfg: &ProtectionConfig,
        serial: u64,
    ) -> Result<[u8; 16], KernelError> {
        if serial == 0 || serial > u64::from(self.count) {
            return Err(KernelError::NotFound);
        }
        let addr = self.entry_addr((serial - 1) as u32);
        let key = cfg.key_policy().data;
        let lo = pfield::read_u64_conf(machine, key, addr + 8, cfg.non_control)?;
        let hi = pfield::read_u64_conf(machine, key, addr + 16, cfg.non_control)?;
        let mut material = [0u8; 16];
        material[..8].copy_from_slice(&lo.to_le_bytes());
        material[8..].copy_from_slice(&hi.to_le_bytes());
        Ok(material)
    }

    /// The kernel AES engine: encrypts one block under the keyring key
    /// `serial`, charging the software-AES instruction budget.
    ///
    /// # Errors
    ///
    /// [`KernelError::NotFound`] for unknown serials.
    pub fn aes_encrypt(
        &self,
        machine: &mut Machine,
        cfg: &ProtectionConfig,
        serial: u64,
        block: [u8; 16],
    ) -> Result<[u8; 16], KernelError> {
        let material = self.load_key(machine, cfg, serial)?;
        machine.charge_modelled(ModelledPath::AesBlock, 1);
        Ok(Aes128::new(&material).encrypt_block(&block))
    }

    /// The kernel AES engine, decryption direction.
    ///
    /// # Errors
    ///
    /// [`KernelError::NotFound`] for unknown serials.
    pub fn aes_decrypt(
        &self,
        machine: &mut Machine,
        cfg: &ProtectionConfig,
        serial: u64,
        block: [u8; 16],
    ) -> Result<[u8; 16], KernelError> {
        let material = self.load_key(machine, cfg, serial)?;
        machine.charge_modelled(ModelledPath::AesBlock, 1);
        Ok(Aes128::new(&material).decrypt_block(&block))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regvault_isa::KeyReg;
    use regvault_sim::MachineConfig;

    fn setup(cfg: &ProtectionConfig) -> (Machine, Keyring, u64) {
        let mut machine = Machine::new(MachineConfig::default());
        machine.write_key_register(KeyReg::D, 0xD0, 0xD1).unwrap();
        let mut heap = Kmalloc::new();
        let mut ring = Keyring::new(&mut heap, 4);
        let serial = ring
            .add_key(&mut machine, cfg, *b"super-secret-key")
            .unwrap();
        (machine, ring, serial)
    }

    #[test]
    fn aes_round_trip_through_the_keyring() {
        let cfg = ProtectionConfig::full();
        let (mut machine, ring, serial) = setup(&cfg);
        let ct = ring
            .aes_encrypt(&mut machine, &cfg, serial, *b"attack at dawn!!")
            .unwrap();
        let pt = ring.aes_decrypt(&mut machine, &cfg, serial, ct).unwrap();
        assert_eq!(&pt, b"attack at dawn!!");
    }

    #[test]
    fn key_material_is_encrypted_in_memory() {
        let cfg = ProtectionConfig::full();
        let (machine, ring, _) = setup(&cfg);
        let addr = ring.entry_addr(0);
        let lo = machine.memory().read_u64(addr + 8).unwrap();
        let hi = machine.memory().read_u64(addr + 16).unwrap();
        let mut leaked = [0u8; 16];
        leaked[..8].copy_from_slice(&lo.to_le_bytes());
        leaked[8..].copy_from_slice(&hi.to_le_bytes());
        assert_ne!(&leaked, b"super-secret-key", "disclosure yields ciphertext");
    }

    #[test]
    fn key_material_leaks_without_protection() {
        let cfg = ProtectionConfig::off();
        let (machine, ring, _) = setup(&cfg);
        let addr = ring.entry_addr(0);
        let lo = machine.memory().read_u64(addr + 8).unwrap();
        let hi = machine.memory().read_u64(addr + 16).unwrap();
        let mut leaked = [0u8; 16];
        leaked[..8].copy_from_slice(&lo.to_le_bytes());
        leaked[8..].copy_from_slice(&hi.to_le_bytes());
        assert_eq!(&leaked, b"super-secret-key", "baseline leaks plaintext");
    }

    #[test]
    fn unknown_serial_is_rejected() {
        let cfg = ProtectionConfig::full();
        let (mut machine, ring, _) = setup(&cfg);
        assert!(matches!(
            ring.load_key(&mut machine, &cfg, 99),
            Err(KernelError::NotFound)
        ));
    }

    #[test]
    fn capacity_is_enforced() {
        let cfg = ProtectionConfig::full();
        let (mut machine, mut ring, _) = setup(&cfg);
        for _ in 0..3 {
            ring.add_key(&mut machine, &cfg, [0u8; 16]).unwrap();
        }
        assert!(matches!(
            ring.add_key(&mut machine, &cfg, [0u8; 16]),
            Err(KernelError::ResourceExhausted)
        ));
    }
}
