//! Kernel hardening walk-through: the six protected data classes of
//! Table 2, live on the miniature kernel.
//!
//! Boots two kernels — the unprotected original and the fully protected
//! RegVault build — and shows, for each protected data class, what the
//! same memory-disclosure/corruption attempt yields on each.
//!
//! Run with: `cargo run --example kernel_hardening`

use regvault::prelude::*;
use regvault_kernel::cred::EUID_OFFSET;
use regvault_kernel::fs::FileOp;
use regvault_kernel::selinux::INITIALIZED_OFFSET;

fn boot(protection: ProtectionConfig) -> Kernel {
    Kernel::boot(KernelConfig {
        protection,
        ..KernelConfig::default()
    })
    .expect("kernel boots")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== RegVault kernel hardening demo (Table 2 data classes) ===\n");

    for protection in [ProtectionConfig::off(), ProtectionConfig::full()] {
        let label = protection.label();
        let mut kernel = boot(protection);
        println!("--- kernel configuration: {label} ---");

        // 1. Return addresses (control data, tweak = stack pointer).
        let slot = kernel.push_kframe(3)?;
        let stored = kernel.machine().memory().read_u64(slot)?;
        println!("saved kernel RA in memory  : {stored:#018x}");
        kernel.pop_kframe(3)?;

        // 2. Function pointers (control data, tweak = storage address).
        let cfg = kernel.protection();
        let fops = kernel.fs.file_ops;
        let raw = kernel
            .machine()
            .memory()
            .read_u64(fops.slot_addr(FileOp::Read))?;
        println!("VFS read fn ptr in memory  : {raw:#018x}");

        // 3. Kernel keys (non-control, manual instrumentation §3.2.1).
        let mut keyring = kernel.keyring.clone();
        keyring.add_key(kernel.machine_mut(), &cfg, *b"hunter2hunter2!!")?;
        let leak = kernel
            .machine()
            .memory()
            .read_u64(keyring.entry_addr(0) + 8)?;
        println!("AES key material in memory : {leak:#018x}");

        // 4. Credentials: the uid=1000 of the init thread.
        let cred = kernel.creds.cred_addr(kernel.current_tid());
        let uid_block = kernel.machine().memory().read_u64(cred + 8)?;
        println!("cred.uid (1000) in memory  : {uid_block:#018x}");

        // 5. SELinux state.
        let selinux_word = kernel
            .machine()
            .memory()
            .read_u64(kernel.selinux.base() + INITIALIZED_OFFSET)?;
        println!("selinux initialized (1)    : {selinux_word:#018x}");

        // 6. PGD pointers: map a page, inspect the directory entry.
        kernel.dispatch(Sysno::Mmap as u64, [0x5000_0000, 0, 0])?;
        let slot = kernel.page_tables.pgd_base() + ((0x5000_0000u64 >> 21) % 512) * 8;
        let pgd_entry = kernel.machine().memory().read_u64(slot)?;
        println!("PGD entry in memory        : {pgd_entry:#018x}");

        // Now the corruption test: zero the euid (the rooting classic).
        kernel
            .machine_mut()
            .memory_mut()
            .write_u64(cred + EUID_OFFSET, 0)?;
        match kernel.dispatch(Sysno::Geteuid as u64, [0; 3]) {
            Ok(euid) => println!("after euid overwrite       : geteuid() = {euid}"),
            Err(err) => println!("after euid overwrite       : kernel panic — {err}"),
        }
        println!();
    }

    println!("On BASE every plaintext was readable and the overwrite stuck.");
    println!("On FULL memory held only ciphertext and the overwrite trapped.\n");

    // Bonus: key rotation (beyond the paper — CoDaRR-style). Recorded
    // ciphertexts die the moment the shared keys rotate.
    println!("--- key rotation (shared data + fn-ptr keys) ---");
    let mut kernel = boot(ProtectionConfig::full());
    let uid_addr = kernel.creds.cred_addr(kernel.current_tid()) + 8;
    let recorded = kernel.machine().memory().read_u64(uid_addr)?;
    let report = kernel.rotate_shared_keys()?;
    println!(
        "rotated: {} data blocks + {} fn-ptr blocks re-encrypted in place",
        report.data_blocks, report.fn_ptr_blocks
    );
    kernel
        .machine_mut()
        .memory_mut()
        .write_u64(uid_addr, recorded)?;
    match kernel.sys_getuid() {
        Ok(uid) => println!("replayed pre-rotation uid block: accepted?! uid={uid}"),
        Err(err) => println!("replayed pre-rotation uid block: {err}"),
    }
    Ok(())
}
