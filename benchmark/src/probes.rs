//! Single-call probes of the layers the rounds go through: the QARMA
//! datapath, the crypto engine with and without a CLB hit, kernel boot and
//! clone, and snapshot capture/fork/digest. Each probe reports the median
//! over repetitions of the mean time per call.

use std::hint::black_box;
use std::time::Instant;

use regvault_isa::{ByteRange, KeyReg};
use regvault_kernel::Kernel;
use regvault_qarma::{Key, Qarma64};
use regvault_sim::{CryptoEngine, Machine, MachineConfig};

use crate::median;

/// Published QARMA test-vector inputs; any fixed block works for timing.
const W0: u64 = 0x84be_85ce_9804_e94b;
const K0: u64 = 0xec28_02d4_e0a4_88e9;
const TWEAK: u64 = 0x477d_469d_ec0b_8762;
const PLAINTEXT: u64 = 0xfb62_3599_da6e_8127;

/// Repetitions per probe; the median of these is reported.
const REPS: usize = 7;

/// Median over [`REPS`] repetitions of the mean nanoseconds per call of
/// `f` over `iters` calls (`f` receives the call index).
pub fn per_call_ns(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            for i in 0..iters {
                f(black_box(i));
            }
            start.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .collect();
    median(&mut samples)
}

/// QARMA-64 probes in nanoseconds: `(encrypt, decrypt, key_schedule)`.
#[must_use]
pub fn qarma_ns() -> (f64, f64, f64) {
    let key = Key::new(W0, K0);
    let cipher = Qarma64::new(key);
    let encrypt = per_call_ns(20_000, |i| {
        black_box(cipher.encrypt(PLAINTEXT ^ i, TWEAK));
    });
    let decrypt = per_call_ns(20_000, |i| {
        black_box(cipher.decrypt(PLAINTEXT ^ i, TWEAK));
    });
    let schedule = per_call_ns(20_000, |i| {
        black_box(Qarma64::new(Key::new(W0 ^ i, K0)));
    });
    (encrypt, decrypt, schedule)
}

/// Crypto-engine probes in nanoseconds: `(encrypt_miss, clb_hit)`. The
/// miss path uses a 0-entry CLB, so every call runs QARMA; the hit path
/// re-encrypts one (tweak, value) pair through the paper's 8-entry CLB.
#[must_use]
pub fn engine_ns(seed: u64) -> (f64, f64) {
    let key = Key::new(W0, K0);
    let mut cold = CryptoEngine::new(0, seed);
    cold.key_file_mut().set_key(KeyReg::A, key);
    let miss = per_call_ns(20_000, |i| {
        black_box(cold.encrypt(KeyReg::A, i * 8, PLAINTEXT, ByteRange::FULL));
    });
    let mut warm = CryptoEngine::new(8, seed);
    warm.key_file_mut().set_key(KeyReg::A, key);
    let hit = per_call_ns(100_000, |_| {
        black_box(warm.encrypt(KeyReg::A, TWEAK, PLAINTEXT, ByteRange::FULL));
    });
    (miss, hit)
}

/// Microseconds per `Kernel::clone` (copy-on-write page sharing).
#[must_use]
pub fn kernel_clone_us(kernel: &Kernel) -> f64 {
    per_call_ns(50, |_| {
        black_box(kernel.clone());
    }) / 1e3
}

/// Snapshot-layer probes on `machine`.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotProbe {
    /// Pages in the image.
    pub pages: u64,
    /// Microseconds per `Machine::snapshot`.
    pub capture_us: f64,
    /// Microseconds per `Machine::fork_from`.
    pub fork_us: f64,
    /// Microseconds per `Machine::arch_digest`.
    pub arch_digest_us: f64,
}

/// Probes capture, fork and digest of `machine`'s image.
#[must_use]
pub fn snapshot(machine: &Machine) -> SnapshotProbe {
    let snap = machine.snapshot();
    let capture_us = per_call_ns(50, |_| {
        black_box(machine.snapshot());
    }) / 1e3;
    let fork_us = per_call_ns(50, |_| {
        black_box(Machine::fork_from(&snap).expect("full snapshot forks"));
    }) / 1e3;
    let arch_digest_us = per_call_ns(50, |_| {
        black_box(machine.arch_digest());
    }) / 1e3;
    SnapshotProbe {
        pages: snap.page_count() as u64,
        capture_us,
        fork_us,
        arch_digest_us,
    }
}

/// A bare machine whose image holds `pages` written pages: the size of the
/// fleet's warm image, which the fleet does not expose.
#[must_use]
pub fn bare_image(pages: u64, seed: u64) -> Machine {
    let mut machine = Machine::new(MachineConfig {
        seed,
        ..MachineConfig::default()
    });
    let base = 0x8000_0000;
    machine.memory_mut().map_region(base, pages * 4096);
    for page in 0..pages {
        machine
            .memory_mut()
            .write_u64(base + page * 4096, seed ^ page)
            .expect("mapped page");
    }
    machine
}
