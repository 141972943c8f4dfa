//! System-level integration: determinism, security/performance interplay,
//! and end-to-end paper claims.

use regvault::prelude::*;

#[test]
fn simulation_is_deterministic() {
    // Same seed, same workload: bit-identical cycle counts. This is the
    // property the whole benchmark methodology rests on.
    let a = measure(&Lmbench::Null, ProtectionConfig::full(), 8).unwrap();
    let b = measure(&Lmbench::Null, ProtectionConfig::full(), 8).unwrap();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.crypto_ops, b.crypto_ops);
}

#[test]
fn different_seeds_give_different_keys_but_same_results() {
    let mut kernels: Vec<Kernel> = [1u64, 2]
        .iter()
        .map(|&seed| {
            Kernel::boot(KernelConfig {
                protection: ProtectionConfig::full(),
                machine: MachineConfig {
                    seed,
                    ..MachineConfig::default()
                },
                ..KernelConfig::default()
            })
            .unwrap()
        })
        .collect();
    // Functional behaviour identical...
    let uids: Vec<u32> = kernels
        .iter_mut()
        .map(|k| k.sys_getuid().unwrap())
        .collect();
    assert_eq!(uids, vec![1000, 1000]);
    // ...but the in-memory ciphertexts differ (different boot keys).
    let blocks: Vec<u64> = kernels
        .iter()
        .map(|k| {
            let addr = k.creds.cred_addr(0) + regvault_kernel::cred::UID_OFFSET;
            k.machine().memory().read_u64(addr).unwrap()
        })
        .collect();
    assert_ne!(blocks[0], blocks[1]);
}

#[test]
fn protection_overhead_is_ordered_and_bounded() {
    // RA is the dominant single component; FULL costs the most; everything
    // is bounded well below 15% on the syscall-dense probe.
    let base = measure(&Lmbench::Read, ProtectionConfig::off(), 8)
        .unwrap()
        .cycles;
    let mut previous = base;
    for config in [ProtectionConfig::fp_only(), ProtectionConfig::full()] {
        let cycles = measure(&Lmbench::Read, config, 8).unwrap().cycles;
        assert!(cycles >= previous, "{} regressed", config.label());
        previous = cycles;
    }
    let full = measure(&Lmbench::Read, ProtectionConfig::full(), 8)
        .unwrap()
        .cycles;
    let overhead = full as f64 / base as f64 - 1.0;
    assert!(overhead < 0.15, "full overhead {overhead:.3} out of range");
}

#[test]
fn attacks_still_fail_after_heavy_workload() {
    // Run a workload, then attack the same (warm) kernel: state churn must
    // not open any window.
    let mut kernel = Kernel::boot(KernelConfig {
        protection: ProtectionConfig::full(),
        ..KernelConfig::default()
    })
    .unwrap();
    for _ in 0..50 {
        kernel.dispatch(Sysno::Getuid as u64, [0; 3]).unwrap();
        kernel.dispatch(Sysno::Null as u64, [0; 3]).unwrap();
    }
    // Privilege escalation attempt on the warm kernel.
    let cred = kernel.creds.cred_addr(kernel.current_tid());
    kernel
        .machine_mut()
        .memory_mut()
        .write_u64(cred + regvault_kernel::cred::EUID_OFFSET, 0)
        .unwrap();
    assert!(matches!(
        kernel.dispatch(Sysno::Geteuid as u64, [0; 3]),
        Err(KernelError::IntegrityViolation { .. })
    ));
}

#[test]
fn clb_size_monotonically_improves_protected_cycles() {
    let mut last = u64::MAX;
    for entries in [0usize, 4, 16] {
        let m = measure(&UnixBench::Syscall, ProtectionConfig::full(), entries).unwrap();
        assert!(m.cycles <= last, "{entries} entries made things worse");
        last = m.cycles;
    }
}

#[test]
fn crypto_op_counts_scale_with_protection_scope() {
    let ra = measure(&Lmbench::Read, ProtectionConfig::ra_only(), 8).unwrap();
    let full = measure(&Lmbench::Read, ProtectionConfig::full(), 8).unwrap();
    let base = measure(&Lmbench::Read, ProtectionConfig::off(), 8).unwrap();
    assert_eq!(base.crypto_ops, 0);
    assert!(ra.crypto_ops > 0);
    assert!(full.crypto_ops > ra.crypto_ops);
}

#[test]
fn spec_differential_holds_under_full_protection() {
    // The compiled SPEC programs must compute identically when the kernel
    // around them is fully protected (interrupt context save/restore must
    // be transparent to user state).
    for item in [Spec::Mcf, Spec::Omnetpp, Spec::Xz] {
        let m = measure(&item, ProtectionConfig::full(), 8).unwrap();
        assert_eq!(m.result, item.reference() & 0xFFFF_FFFF, "{}", item.name());
    }
}

#[test]
fn qarma_keys_flow_end_to_end_from_boot_to_field() {
    // White-box check across all layers: the value stored for cred.uid
    // really is QARMA(data key, tweak=address, uid) — cipher, engine,
    // kernel all agree.
    let kernel = Kernel::boot(KernelConfig {
        protection: ProtectionConfig::full(),
        ..KernelConfig::default()
    })
    .unwrap();
    let addr = kernel.creds.cred_addr(0) + regvault_kernel::cred::UID_OFFSET;
    let stored = kernel.machine().memory().read_u64(addr).unwrap();
    let data_key = kernel.protection().key_policy().data;
    let key = kernel.machine().engine().key_file().key(data_key);
    let expected = Qarma64::new(key).encrypt(1000, addr);
    assert_eq!(stored, expected);
}
