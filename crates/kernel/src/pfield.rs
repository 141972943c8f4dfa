//! Shared helpers for protected (randomized) kernel fields.
//!
//! Every annotated field in the miniature kernel is stored as one or two
//! 64-bit QARMA ciphertext blocks, encrypted with the data key and the
//! field's storage address as tweak (Table 2). These helpers perform the
//! load/decrypt and encrypt/store sequences on the machine, charging
//! cycles, exactly as the compiler-instrumented code of Figure 2 would.

use regvault_isa::{ByteRange, KeyReg};
use regvault_sim::Machine;

use crate::error::KernelError;

/// Writes a protected 32-bit value (`__rand_integrity` on 32-bit data):
/// zero-extended, encrypted over `[3:0]`, stored as one block.
pub(crate) fn write_u32(
    machine: &mut Machine,
    key: KeyReg,
    addr: u64,
    value: u32,
    protected: bool,
) -> Result<(), KernelError> {
    if protected {
        let ct = machine.kernel_encrypt(key, addr, u64::from(value), ByteRange::LOW32);
        machine.kernel_store_u64(addr, ct)?;
    } else {
        machine.kernel_store_u64(addr, u64::from(value))?;
    }
    Ok(())
}

/// Reads a protected 32-bit value, raising an integrity violation when the
/// stored block was corrupted or substituted.
pub(crate) fn read_u32(
    machine: &mut Machine,
    key: KeyReg,
    addr: u64,
    protected: bool,
    what: &'static str,
) -> Result<u32, KernelError> {
    let raw = machine.kernel_load_u64(addr)?;
    if protected {
        let pt = machine
            .kernel_decrypt(key, addr, raw, ByteRange::LOW32)
            .map_err(|_| KernelError::IntegrityViolation { what })?;
        Ok(pt as u32)
    } else {
        Ok(raw as u32)
    }
}

/// Writes a protected 64-bit value with confidentiality only (`__rand`,
/// full-range `[7:0]`) — used for pointers (PGD, function pointers).
pub(crate) fn write_u64_conf(
    machine: &mut Machine,
    key: KeyReg,
    addr: u64,
    value: u64,
    protected: bool,
) -> Result<(), KernelError> {
    let stored = if protected {
        machine.kernel_encrypt(key, addr, value, ByteRange::FULL)
    } else {
        value
    };
    machine.kernel_store_u64(addr, stored)?;
    Ok(())
}

/// Reads a `__rand` (confidentiality-only) 64-bit value. Corruption is not
/// *detected* here — the value decrypts to garbage instead, which is the
/// paper's point for pointers.
pub(crate) fn read_u64_conf(
    machine: &mut Machine,
    key: KeyReg,
    addr: u64,
    protected: bool,
) -> Result<u64, KernelError> {
    let raw = machine.kernel_load_u64(addr)?;
    if protected {
        // Full-range decryption has no redundancy; even a faulted datapath
        // (e.g. a poisoned CLB entry) yields garbage rather than a panic —
        // the consumer of the pointer is what crashes, detectably.
        let pt = machine
            .kernel_decrypt(key, addr, raw, ByteRange::FULL)
            .unwrap_or_else(|garbled| garbled);
        Ok(pt)
    } else {
        Ok(raw)
    }
}

/// Writes a protected 64-bit value with integrity: split into two
/// integrity-checked 32-bit blocks (Figure 2c), occupying 16 bytes.
pub(crate) fn write_u64_integrity(
    machine: &mut Machine,
    key: KeyReg,
    addr: u64,
    value: u64,
    protected: bool,
) -> Result<(), KernelError> {
    if protected {
        let lo = machine.kernel_encrypt(key, addr, value & 0xFFFF_FFFF, ByteRange::LOW32);
        let hi = machine.kernel_encrypt(
            key,
            addr + 8,
            value & 0xFFFF_FFFF_0000_0000,
            ByteRange::HIGH32,
        );
        machine.kernel_store_u64(addr, lo)?;
        machine.kernel_store_u64(addr + 8, hi)?;
    } else {
        machine.kernel_store_u64(addr, value)?;
        machine.kernel_store_u64(addr + 8, 0)?;
    }
    Ok(())
}

/// Reads a 64-bit integrity-protected value (two blocks, ORed together).
pub(crate) fn read_u64_integrity(
    machine: &mut Machine,
    key: KeyReg,
    addr: u64,
    protected: bool,
    what: &'static str,
) -> Result<u64, KernelError> {
    let raw_lo = machine.kernel_load_u64(addr)?;
    let raw_hi = machine.kernel_load_u64(addr + 8)?;
    if protected {
        let lo = machine
            .kernel_decrypt(key, addr, raw_lo, ByteRange::LOW32)
            .map_err(|_| KernelError::IntegrityViolation { what })?;
        let hi = machine
            .kernel_decrypt(key, addr + 8, raw_hi, ByteRange::HIGH32)
            .map_err(|_| KernelError::IntegrityViolation { what })?;
        Ok(lo | hi)
    } else {
        Ok(raw_lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regvault_sim::MachineConfig;

    fn machine() -> Machine {
        let mut machine = Machine::new(MachineConfig::default());
        machine.write_key_register(KeyReg::D, 0xD0, 0xD1).unwrap();
        machine
    }

    #[test]
    fn protected_u32_round_trip() {
        let mut m = machine();
        write_u32(&mut m, KeyReg::D, 0x9000, 1234, true).unwrap();
        assert_ne!(m.memory().read_u64(0x9000).unwrap(), 1234);
        assert_eq!(
            read_u32(&mut m, KeyReg::D, 0x9000, true, "x").unwrap(),
            1234
        );
    }

    #[test]
    fn corrupting_protected_u32_is_detected() {
        let mut m = machine();
        write_u32(&mut m, KeyReg::D, 0x9000, 1234, true).unwrap();
        let ct = m.memory().read_u64(0x9000).unwrap();
        m.memory_mut().write_u64(0x9000, ct ^ 0x4).unwrap();
        assert!(matches!(
            read_u32(&mut m, KeyReg::D, 0x9000, true, "x"),
            Err(KernelError::IntegrityViolation { .. })
        ));
    }

    #[test]
    fn unprotected_u32_accepts_corruption() {
        let mut m = machine();
        write_u32(&mut m, KeyReg::D, 0x9000, 1234, false).unwrap();
        m.memory_mut().write_u64(0x9000, 0).unwrap();
        assert_eq!(read_u32(&mut m, KeyReg::D, 0x9000, false, "x").unwrap(), 0);
    }

    #[test]
    fn integrity_u64_round_trip_and_detection() {
        let mut m = machine();
        let value = 0x1122_3344_5566_7788u64;
        write_u64_integrity(&mut m, KeyReg::D, 0x9100, value, true).unwrap();
        assert_eq!(
            read_u64_integrity(&mut m, KeyReg::D, 0x9100, true, "x").unwrap(),
            value
        );
        // Swap the two halves (substitution): must be detected.
        let lo = m.memory().read_u64(0x9100).unwrap();
        let hi = m.memory().read_u64(0x9108).unwrap();
        m.memory_mut().write_u64(0x9100, hi).unwrap();
        m.memory_mut().write_u64(0x9108, lo).unwrap();
        assert!(matches!(
            read_u64_integrity(&mut m, KeyReg::D, 0x9100, true, "x"),
            Err(KernelError::IntegrityViolation { .. })
        ));
    }

    #[test]
    fn conf_only_u64_randomizes_but_does_not_detect() {
        let mut m = machine();
        write_u64_conf(&mut m, KeyReg::D, 0x9200, 0xABCD, true).unwrap();
        assert_ne!(m.memory().read_u64(0x9200).unwrap(), 0xABCD);
        // Corruption decrypts to garbage, silently.
        m.memory_mut().write_u64(0x9200, 0x1111).unwrap();
        let got = read_u64_conf(&mut m, KeyReg::D, 0x9200, true).unwrap();
        assert_ne!(got, 0xABCD);
    }
}
