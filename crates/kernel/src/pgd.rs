//! Page-global-directory pointers, §3.2.4 of the paper.
//!
//! Page tables are globally writable kernel data; an attacker who can find
//! them can rewrite permissions and disable memory protection. RegVault
//! randomizes every PGD pointer (`pgd_t` annotation) with the storage
//! address as tweak, hiding page-table locations and defeating
//! substitution; statically allocated tables are re-allocated so nothing
//! is findable at a known address.
//!
//! The model: a two-level table. The PGD is an array of 64-bit entries,
//! each (when valid) holding the address of a page-table page ORed with a
//! valid bit. Entries are stored encrypted (`__rand`, full range) when
//! non-control protection is on; a corrupted or substituted entry decrypts
//! to a garbage pointer which the walk detects as out-of-arena.

use regvault_sim::{Machine, ModelledPath};

use crate::config::ProtectionConfig;
use crate::error::KernelError;
use crate::layout::PAGE_TABLE_BASE;
use crate::pfield;

/// Entries per directory/table page.
pub const ENTRIES: u64 = 512;
/// Bytes per page-table page.
pub const PT_PAGE_SIZE: u64 = ENTRIES * 8;
/// Valid bit in a (plaintext) entry.
pub const PTE_VALID: u64 = 1;

/// Arena-backed page-table allocator plus the root PGD.
#[derive(Debug, Clone, Hash)]
pub struct PageTables {
    pgd_base: u64,
    pub(crate) next_page: u64,
    arena_end: u64,
}

impl PageTables {
    /// Allocates the root PGD at a "re-allocated" (non-static) address:
    /// the arena origin plus a boot-time offset, mirroring the paper's
    /// re-allocation of statically placed tables.
    ///
    /// # Errors
    ///
    /// Propagates guest-memory faults while zeroing the PGD.
    pub fn new(machine: &mut Machine, boot_offset: u64) -> Result<Self, KernelError> {
        let pgd_base = PAGE_TABLE_BASE + (boot_offset % 64) * PT_PAGE_SIZE;
        let mut tables = Self {
            pgd_base,
            next_page: pgd_base + PT_PAGE_SIZE,
            arena_end: PAGE_TABLE_BASE + 0x100_0000,
        };
        tables.zero_page(machine, pgd_base)?;
        Ok(tables)
    }

    fn zero_page(&mut self, machine: &mut Machine, base: u64) -> Result<(), KernelError> {
        machine.memory_mut().map_region(base, PT_PAGE_SIZE);
        machine.charge_modelled(ModelledPath::PageClear, 1);
        Ok(())
    }

    /// Guest address of the root PGD (the attacker must *find* this; with
    /// protection on, nothing in memory points to it in plaintext).
    #[must_use]
    pub fn pgd_base(&self) -> u64 {
        self.pgd_base
    }

    fn alloc_page(&mut self, machine: &mut Machine) -> Result<u64, KernelError> {
        if self.next_page >= self.arena_end {
            return Err(KernelError::ResourceExhausted);
        }
        let page = self.next_page;
        self.next_page += PT_PAGE_SIZE;
        self.zero_page(machine, page)?;
        Ok(page)
    }

    fn pgd_slot(&self, vaddr: u64) -> u64 {
        self.pgd_base + ((vaddr >> 21) % ENTRIES) * 8
    }

    /// Maps a virtual page: installs (or follows) the PGD entry and writes
    /// the leaf PTE.
    ///
    /// # Errors
    ///
    /// [`KernelError::IntegrityViolation`] when an existing PGD entry
    /// decrypts to a pointer outside the page-table arena (corruption or
    /// substitution), [`KernelError::ResourceExhausted`] when the arena is
    /// full.
    pub fn map(
        &mut self,
        machine: &mut Machine,
        cfg: &ProtectionConfig,
        vaddr: u64,
        paddr: u64,
    ) -> Result<(), KernelError> {
        let slot = self.pgd_slot(vaddr);
        let key = cfg.key_policy().data;
        let raw = machine.kernel_load_u64(slot)?;
        let pt_page = if raw == 0 {
            let page = self.alloc_page(machine)?;
            pfield::write_u64_conf(machine, key, slot, page | PTE_VALID, cfg.non_control)?;
            page
        } else {
            let entry = if cfg.non_control {
                machine
                    .kernel_decrypt(key, slot, raw, regvault_isa::ByteRange::FULL)
                    .expect("full range")
            } else {
                raw
            };
            let page = entry & !PTE_VALID;
            if entry & PTE_VALID == 0 || page < PAGE_TABLE_BASE || page >= self.arena_end {
                return Err(KernelError::IntegrityViolation { what: "pgd entry" });
            }
            machine.charge_modelled(ModelledPath::PgdEntryCheck, 1);
            page
        };
        let pte_slot = pt_page + ((vaddr >> 12) % ENTRIES) * 8;
        machine.kernel_store_u64(pte_slot, paddr | PTE_VALID)?;
        Ok(())
    }

    /// Walks the tables for `vaddr`, returning the mapped physical address.
    ///
    /// # Errors
    ///
    /// [`KernelError::IntegrityViolation`] on a garbage PGD entry,
    /// [`KernelError::NotFound`] when nothing is mapped.
    pub fn walk(
        &self,
        machine: &mut Machine,
        cfg: &ProtectionConfig,
        vaddr: u64,
    ) -> Result<u64, KernelError> {
        let slot = self.pgd_slot(vaddr);
        let raw = machine.kernel_load_u64(slot)?;
        if raw == 0 {
            return Err(KernelError::NotFound);
        }
        let entry = if cfg.non_control {
            machine
                .kernel_decrypt(
                    cfg.key_policy().data,
                    slot,
                    raw,
                    regvault_isa::ByteRange::FULL,
                )
                .expect("full range")
        } else {
            raw
        };
        let page = entry & !PTE_VALID;
        if entry & PTE_VALID == 0 || page < PAGE_TABLE_BASE || page >= self.arena_end {
            return Err(KernelError::IntegrityViolation { what: "pgd entry" });
        }
        let pte_slot = page + ((vaddr >> 12) % ENTRIES) * 8;
        let pte = machine.kernel_load_u64(pte_slot)?;
        if pte & PTE_VALID == 0 {
            return Err(KernelError::NotFound);
        }
        Ok(pte & !PTE_VALID)
    }

    /// Guest addresses of every populated PGD slot (for key rotation).
    ///
    /// # Errors
    ///
    /// Propagates guest-memory faults.
    pub fn live_pgd_slots(&self, machine: &Machine) -> Result<Vec<u64>, KernelError> {
        let mut slots = Vec::new();
        for index in 0..ENTRIES {
            let slot = self.pgd_base + index * 8;
            if machine.memory().read_u64(slot)? != 0 {
                slots.push(slot);
            }
        }
        Ok(slots)
    }

    /// Unmaps a virtual page.
    ///
    /// # Errors
    ///
    /// Same as [`PageTables::walk`].
    pub fn unmap(
        &mut self,
        machine: &mut Machine,
        cfg: &ProtectionConfig,
        vaddr: u64,
    ) -> Result<(), KernelError> {
        let slot = self.pgd_slot(vaddr);
        let raw = machine.kernel_load_u64(slot)?;
        if raw == 0 {
            return Err(KernelError::NotFound);
        }
        let entry = if cfg.non_control {
            machine
                .kernel_decrypt(
                    cfg.key_policy().data,
                    slot,
                    raw,
                    regvault_isa::ByteRange::FULL,
                )
                .expect("full range")
        } else {
            raw
        };
        let page = entry & !PTE_VALID;
        if entry & PTE_VALID == 0 || page < PAGE_TABLE_BASE || page >= self.arena_end {
            return Err(KernelError::IntegrityViolation { what: "pgd entry" });
        }
        let pte_slot = page + ((vaddr >> 12) % ENTRIES) * 8;
        machine.kernel_store_u64(pte_slot, 0)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regvault_isa::KeyReg;
    use regvault_sim::MachineConfig;

    fn setup(_cfg: &ProtectionConfig) -> (Machine, PageTables) {
        let mut machine = Machine::new(MachineConfig::default());
        machine.write_key_register(KeyReg::D, 0xD0, 0xD1).unwrap();
        let tables = PageTables::new(&mut machine, 3).unwrap();
        (machine, tables)
    }

    #[test]
    fn map_and_walk() {
        let cfg = ProtectionConfig::full();
        let (mut machine, mut tables) = setup(&cfg);
        tables
            .map(&mut machine, &cfg, 0x40_0000, 0x8010_0000)
            .unwrap();
        assert_eq!(
            tables.walk(&mut machine, &cfg, 0x40_0000).unwrap(),
            0x8010_0000
        );
        assert!(matches!(
            tables.walk(&mut machine, &cfg, 0x123_0000_0000),
            Err(KernelError::NotFound)
        ));
    }

    #[test]
    fn pgd_entries_are_randomized_in_memory() {
        let cfg = ProtectionConfig::full();
        let (mut machine, mut tables) = setup(&cfg);
        tables
            .map(&mut machine, &cfg, 0x40_0000, 0x8010_0000)
            .unwrap();
        let slot = tables.pgd_base() + ((0x40_0000u64 >> 21) % ENTRIES) * 8;
        let raw = machine.memory().read_u64(slot).unwrap();
        // A plaintext entry would point into the arena with the valid bit.
        assert_eq!(raw & PTE_VALID, raw & 1);
        assert!(
            !(PAGE_TABLE_BASE..PAGE_TABLE_BASE + 0x100_0000).contains(&(raw & !PTE_VALID)),
            "encrypted entry must not reveal the table location"
        );
    }

    #[test]
    fn corrupting_a_pgd_entry_is_detected() {
        let cfg = ProtectionConfig::full();
        let (mut machine, mut tables) = setup(&cfg);
        tables
            .map(&mut machine, &cfg, 0x40_0000, 0x8010_0000)
            .unwrap();
        let slot = tables.pgd_base() + ((0x40_0000u64 >> 21) % ENTRIES) * 8;
        // Attacker points the entry at an attacker-controlled "table".
        machine
            .memory_mut()
            .write_u64(slot, 0x4141_4141_4141_4141)
            .unwrap();
        assert!(matches!(
            tables.walk(&mut machine, &cfg, 0x40_0000),
            Err(KernelError::IntegrityViolation { .. })
        ));
    }

    #[test]
    fn corrupting_a_pgd_entry_works_without_protection() {
        let cfg = ProtectionConfig::off();
        let (mut machine, mut tables) = setup(&cfg);
        tables
            .map(&mut machine, &cfg, 0x40_0000, 0x8010_0000)
            .unwrap();
        let slot = tables.pgd_base() + ((0x40_0000u64 >> 21) % ENTRIES) * 8;
        // Point the PGD at a fake table whose PTE maps to attacker memory.
        let fake_table = PAGE_TABLE_BASE + 0x80_0000;
        machine.memory_mut().map_region(fake_table, PT_PAGE_SIZE);
        let pte_slot = fake_table + ((0x40_0000u64 >> 12) % ENTRIES) * 8;
        machine
            .memory_mut()
            .write_u64(pte_slot, 0xBAD0_0000 | PTE_VALID)
            .unwrap();
        machine
            .memory_mut()
            .write_u64(slot, fake_table | PTE_VALID)
            .unwrap();
        assert_eq!(
            tables.walk(&mut machine, &cfg, 0x40_0000).unwrap(),
            0xBAD0_0000,
            "unprotected walk follows the attacker's table"
        );
    }

    #[test]
    fn unmap_removes_the_translation() {
        let cfg = ProtectionConfig::full();
        let (mut machine, mut tables) = setup(&cfg);
        tables
            .map(&mut machine, &cfg, 0x40_0000, 0x8010_0000)
            .unwrap();
        tables.unmap(&mut machine, &cfg, 0x40_0000).unwrap();
        assert!(matches!(
            tables.walk(&mut machine, &cfg, 0x40_0000),
            Err(KernelError::NotFound)
        ));
    }
}
