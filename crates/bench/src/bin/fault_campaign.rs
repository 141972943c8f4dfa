//! Deterministic fault-injection campaign over the protected kernel.
//!
//! Boots a fresh kernel per trial, injects one fault from a seeded stream
//! through the simulator's [`regvault_sim::FaultKind`] machinery, then
//! exercises the faulted data path and classifies what the kernel
//! experienced:
//!
//! * **Detected** — the fault raised an integrity exception;
//! * **Garbled** — the fault produced a wrong value that a downstream
//!   consumer catches (e.g. a wild jump to a non-gadget address);
//! * **Masked** — the architectural state the kernel consumed was
//!   unaffected (the fault landed in dead bits, or a warm CLB entry kept
//!   serving the pre-fault key);
//! * **SilentCorruption** — the kernel consumed an attacker-visible wrong
//!   value with no indication at all. Under full protection this is a
//!   *finding*: it should never happen.
//!
//! The campaign is bit-for-bit reproducible: the same `--seed` and
//! `--trials` always produce the same report. Each trial derives its own
//! splitmix-mixed RNG seed from the `(config, class)` stream, so any single
//! trial can be re-run in isolation: with `--repro-dir` the campaign dumps
//! a self-contained [`ReproBundle`] (event log + expected architectural
//! digest) for every non-Masked outcome, `--replay` re-executes a bundle
//! and verifies the verdict *and* the final machine digest bit-for-bit,
//! and `--shrink` ddmin-minimizes a bundle's event log to the faults that
//! actually matter (writing `BUNDLE.min`).
//!
//! One run covers one campaign seed; sweeping seeds means one run each.
//!
//! ```text
//! cargo run --release --bin fault_campaign -- --seed 42 --trials 200
//! cargo run --release --bin fault_campaign -- --trials 5 --noise 20 --repro-dir repro/
//! cargo run --release --bin fault_campaign -- --replay repro/full-ra-corrupt-seed42-trial3.bundle
//! cargo run --release --bin fault_campaign -- --shrink repro/full-ra-corrupt-seed42-trial3.bundle
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use regvault_cli::args::{self, num, set, Flag};
use regvault_kernel::cred::{CredField, EUID_OFFSET};
use regvault_kernel::fs::{handlers, FileOp};
use regvault_kernel::layout::KERNEL_TEXT_BASE;
use regvault_kernel::{trap, Kernel, KernelConfig, KernelError, ProtectionConfig};
use regvault_sim::{shrink_events, EventLog, FaultKind, ReproBundle};

/// Per-trial classification (most severe last).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Detected,
    Garbled,
    Masked,
    SilentCorruption,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Detected => "detected",
            Verdict::Garbled => "garbled",
            Verdict::Masked => "masked",
            Verdict::SilentCorruption => "silent-corruption",
        }
    }
}

/// Outcome counts for one fault class under one configuration.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    detected: u64,
    garbled: u64,
    masked: u64,
    silent: u64,
}

impl Tally {
    fn record(&mut self, verdict: Verdict) {
        match verdict {
            Verdict::Detected => self.detected += 1,
            Verdict::Garbled => self.garbled += 1,
            Verdict::Masked => self.masked += 1,
            Verdict::SilentCorruption => self.silent += 1,
        }
    }
}

/// The injected fault classes, one campaign row each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    MemBitFlip,
    FrameCorrupt,
    KeyTamper,
    ClbPoison,
    TweakSubstitution,
    RaCorrupt,
}

impl Class {
    const ALL: [Class; 6] = [
        Class::MemBitFlip,
        Class::FrameCorrupt,
        Class::KeyTamper,
        Class::ClbPoison,
        Class::TweakSubstitution,
        Class::RaCorrupt,
    ];

    fn name(self) -> &'static str {
        match self {
            Class::MemBitFlip => "mem-bit-flip",
            Class::FrameCorrupt => "frame-corrupt",
            Class::KeyTamper => "key-tamper",
            Class::ClbPoison => "clb-poison",
            Class::TweakSubstitution => "tweak-substitution",
            Class::RaCorrupt => "ra-corrupt",
        }
    }

    fn from_name(name: &str) -> Option<Class> {
        Class::ALL.iter().copied().find(|c| c.name() == name)
    }
}

/// What the trial does *after* the faults land, and what "correct" looks
/// like. Keeping this separate from fault generation is what makes replay
/// possible: a bundle re-runs [`prepare`] with the recorded trial seed to
/// rebuild identical pre-fault state, then injects the *logged* faults
/// (or a shrunk subset) instead of freshly drawn ones.
enum Exercise {
    /// Read the current thread's protected `cred.euid` (expected 1000).
    ReadEuid,
    /// Restore an interrupt frame and compare against the saved registers.
    RestoreFrame {
        frame: u64,
        expected: Box<[u64; 32]>,
    },
    /// Pop a protected return address, then read the euid.
    PopAndReadEuid { site: u32 },
    /// Resolve a protected function pointer and check which handler wins.
    ResolveOp {
        op: FileOp,
        substituted: u64,
        legitimate: u64,
    },
    /// Return through a (possibly corrupted) saved return address.
    PopFrame { site: u32, gadget: u64 },
}

/// Scratch page for `--noise` faults: mapped in every trial (so recorded
/// and replayed runs share the same page set and digest), read by nothing
/// (so noise bit flips never change a verdict).
const SCRATCH_BASE: u64 = 0xFFFF_FFC0_3000_0000;
const SCRATCH_SLOTS: u64 = 512;

fn boot(protection: ProtectionConfig) -> Kernel {
    Kernel::boot(KernelConfig {
        protection,
        ..KernelConfig::default()
    })
    .expect("kernel boots")
}

/// Builds a trial's pre-fault state: a booted kernel, the fault(s) the RNG
/// chose for this class, and the exercise that will consume the faulted
/// data. Draws from `rng` in a fixed order, so the same trial seed always
/// reproduces the same kernel and fault parameters.
fn prepare(
    class: Class,
    rng: &mut StdRng,
    protection: ProtectionConfig,
) -> (Kernel, Vec<FaultKind>, Exercise) {
    let mut kernel = boot(protection);
    for slot in 0..SCRATCH_SLOTS {
        kernel
            .machine_mut()
            .kernel_store_u64(SCRATCH_BASE + 8 * slot, 0)
            .expect("scratch page maps");
    }
    match class {
        // Flip one random bit of the stored `cred.euid` block.
        Class::MemBitFlip => {
            let tid = kernel.current_tid();
            let addr = kernel.creds.cred_addr(tid) + EUID_OFFSET;
            let bit = (rng.gen_range(0..64)) as u8;
            (
                kernel,
                vec![FaultKind::MemBitFlip { addr, bit }],
                Exercise::ReadEuid,
            )
        }
        // Flip one random bit in one random interrupt-frame slot (including
        // the chain terminator) between `save_context` and `restore_context`.
        Class::FrameCorrupt => {
            let cfg = kernel.protection();
            let tid = kernel.current_tid();
            let frame = kernel.threads.interrupt_frame_addr(tid);
            let key = cfg.key_policy().interrupt;
            for i in 1..32u8 {
                let reg = regvault_isa::Reg::from_index(i).expect("x1..x31");
                kernel
                    .machine_mut()
                    .hart_mut()
                    .set_reg(reg, 0x8000_0000 + u64::from(i) * 0x11);
            }
            let expected = kernel.machine().hart().regs();
            trap::save_context(kernel.machine_mut(), &cfg, key, frame).expect("context saved");
            let slot = rng.gen_range(0..trap::FRAME_SLOTS as u64);
            let bit = (rng.gen_range(0..64)) as u8;
            (
                kernel,
                vec![FaultKind::MemBitFlip {
                    addr: frame + 8 * slot,
                    bit,
                }],
                Exercise::RestoreFrame {
                    frame,
                    expected: Box::new(expected),
                },
            )
        }
        // XOR random garbage into a random general key register *without*
        // CLB invalidation (the hardware-fault path).
        Class::KeyTamper => {
            let site = rng.gen_range(0..64) as u32;
            let _slot = kernel.push_kframe(site).expect("frame push");
            let ksel = rng.gen_range(1..8) as u8;
            let xor_w0 = rng.gen::<u64>() | 1;
            let xor_k0 = rng.gen::<u64>();
            (
                kernel,
                vec![FaultKind::KeyTamper {
                    ksel,
                    xor_w0,
                    xor_k0,
                }],
                Exercise::PopAndReadEuid { site },
            )
        }
        // Warm the data key's CLB entry, then XOR random garbage into the
        // most recently used CLB line.
        Class::ClbPoison => {
            let cfg = kernel.protection();
            let tid = kernel.current_tid();
            let creds = kernel.creds.clone();
            // Make the data key the MRU CLB entry (no-op crypto-wise under `off`).
            let _ = creds.read(kernel.machine_mut(), &cfg, tid, CredField::Euid);
            let xor = rng.gen::<u64>() | 1;
            (
                kernel,
                vec![FaultKind::ClbPoison { xor }],
                Exercise::ReadEuid,
            )
        }
        // Swap the stored words of two *legitimate* function-pointer slots
        // (`file_ops.read` ↔ `pipe_ops.read`/`write`) — both are valid
        // ciphertexts, only the storage address (the tweak) differs.
        Class::TweakSubstitution => {
            let (op, substituted) = if rng.gen::<bool>() {
                (FileOp::Read, handlers::PIPE_READ)
            } else {
                (FileOp::Write, handlers::PIPE_WRITE)
            };
            let file_slot = kernel.fs.file_ops.slot_addr(op);
            let pipe_slot = kernel.fs.pipe_ops.slot_addr(op);
            let legitimate = match op {
                FileOp::Read => handlers::FILE_READ,
                FileOp::Write => handlers::FILE_WRITE,
                FileOp::Stat => handlers::FILE_STAT,
            };
            (
                kernel,
                vec![FaultKind::MemSwap {
                    a: file_slot,
                    b: pipe_slot,
                }],
                Exercise::ResolveOp {
                    op,
                    substituted,
                    legitimate,
                },
            )
        }
        // Overwrite a saved kernel return address with a random gadget
        // address.
        Class::RaCorrupt => {
            let site = rng.gen_range(0..64) as u32;
            let slot = kernel.push_kframe(site).expect("frame push");
            let gadget = KERNEL_TEXT_BASE + 0x4000 + rng.gen_range(0..0x1000) * 4;
            (
                kernel,
                vec![FaultKind::MemWrite {
                    addr: slot,
                    value: gadget,
                }],
                Exercise::PopFrame { site, gadget },
            )
        }
    }
}

/// Runs the exercise against the (now faulted) kernel and classifies what
/// it experienced.
fn classify(kernel: &mut Kernel, exercise: &Exercise) -> Verdict {
    match exercise {
        Exercise::ReadEuid => {
            let cfg = kernel.protection();
            let tid = kernel.current_tid();
            let creds = kernel.creds.clone();
            match creds.read(kernel.machine_mut(), &cfg, tid, CredField::Euid) {
                Err(KernelError::IntegrityViolation { .. }) | Err(_) => Verdict::Detected,
                Ok(1000) => Verdict::Masked,
                Ok(_) => Verdict::SilentCorruption,
            }
        }
        Exercise::RestoreFrame { frame, expected } => {
            let cfg = kernel.protection();
            let key = cfg.key_policy().interrupt;
            match trap::restore_context(kernel.machine_mut(), &cfg, key, *frame) {
                Err(KernelError::IntegrityViolation { .. }) | Err(_) => Verdict::Detected,
                Ok(regs) => {
                    if regs.iter().zip(expected[1..].iter()).all(|(a, b)| a == b) {
                        Verdict::Masked
                    } else {
                        Verdict::SilentCorruption
                    }
                }
            }
        }
        Exercise::PopAndReadEuid { site } => {
            let pop = kernel.pop_kframe(*site);
            let cfg = kernel.protection();
            let tid = kernel.current_tid();
            let creds = kernel.creds.clone();
            let read = creds.read(kernel.machine_mut(), &cfg, tid, CredField::Euid);
            match (pop, read) {
                (_, Err(KernelError::IntegrityViolation { .. })) => Verdict::Detected,
                (_, Ok(euid)) if euid != 1000 => Verdict::SilentCorruption,
                (Err(KernelError::WildJump { .. }), _) => Verdict::Garbled,
                (Err(_), _) | (_, Err(_)) => Verdict::Detected,
                (Ok(()), Ok(_)) => Verdict::Masked,
            }
        }
        Exercise::ResolveOp {
            op,
            substituted,
            legitimate,
        } => {
            let cfg = kernel.protection();
            let fops = kernel.fs.file_ops;
            match fops.resolve(kernel.machine_mut(), &cfg, *op) {
                Err(KernelError::IntegrityViolation { .. }) | Err(_) => Verdict::Detected,
                Ok(target) if target == *substituted => Verdict::SilentCorruption,
                Ok(target) if target == *legitimate => Verdict::Masked,
                Ok(_) => Verdict::Garbled,
            }
        }
        Exercise::PopFrame { site, gadget } => match kernel.pop_kframe(*site) {
            Err(KernelError::WildJump { target }) if target == *gadget => Verdict::SilentCorruption,
            Err(KernelError::WildJump { .. }) => Verdict::Garbled,
            Err(KernelError::IntegrityViolation { .. }) | Err(_) => Verdict::Detected,
            Ok(()) => Verdict::Masked,
        },
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Independent RNG seed for one trial within a `(config, class)` stream.
/// Every trial is replayable in isolation from `(class, config, trial_seed)`
/// alone — no need to re-draw its predecessors.
fn trial_seed(stream: u64, trial: u64) -> u64 {
    splitmix64(stream ^ splitmix64(trial))
}

/// Harmless faults for `--noise`: single-bit flips in the scratch page,
/// which no exercise ever reads. They pad the recorded event log so
/// `--shrink` has something real to throw away.
fn noise_faults(rng: &mut StdRng, count: u64) -> Vec<FaultKind> {
    (0..count)
        .map(|_| FaultKind::MemBitFlip {
            addr: SCRATCH_BASE + 8 * rng.gen_range(0..SCRATCH_SLOTS),
            bit: rng.gen_range(0..64) as u8,
        })
        .collect()
}

/// Everything one executed trial produced: the verdict plus the recorded
/// event log and final architectural digest a repro bundle needs.
struct TrialRun {
    verdict: Verdict,
    log: EventLog,
    digest: u64,
    steps: u64,
}

/// Runs one fresh trial: prepare, record, inject (noise interleaved around
/// the real fault), exercise, classify.
fn run_trial(class: Class, seed: u64, protection: ProtectionConfig, noise: u64) -> TrialRun {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut kernel, faults, exercise) = prepare(class, &mut rng, protection);
    let noise = noise_faults(&mut rng, noise);
    let head = noise.len() / 2;
    kernel.machine_mut().start_recording();
    for kind in noise[..head].iter().chain(&faults).chain(&noise[head..]) {
        kernel.machine_mut().inject_fault(*kind);
    }
    let verdict = classify(&mut kernel, &exercise);
    let log = kernel
        .machine_mut()
        .stop_recording()
        .expect("recording was active");
    TrialRun {
        verdict,
        log,
        digest: kernel.machine().arch_digest(),
        steps: kernel.machine().stats().instret,
    }
}

/// Re-runs a trial's exercise with an explicit fault list (a bundle's full
/// log, or a shrink candidate) instead of freshly drawn faults.
fn replay_trial(
    class: Class,
    seed: u64,
    protection: ProtectionConfig,
    faults: &[FaultKind],
) -> (Verdict, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut kernel, _planned, exercise) = prepare(class, &mut rng, protection);
    for kind in faults {
        kernel.machine_mut().inject_fault(*kind);
    }
    let verdict = classify(&mut kernel, &exercise);
    (verdict, kernel.machine().arch_digest())
}

/// Where non-Masked trials dump their repro bundles.
struct ReproSink {
    dir: PathBuf,
}

impl ReproSink {
    #[allow(clippy::too_many_arguments)]
    fn write(
        &self,
        class: Class,
        label: &str,
        campaign_seed: u64,
        trial: u64,
        seed: u64,
        noise: u64,
        run: &TrialRun,
    ) {
        let bundle = ReproBundle {
            meta: vec![
                ("harness".into(), "fault-campaign".into()),
                ("class".into(), class.name().into()),
                ("config".into(), label.into()),
                ("campaign_seed".into(), campaign_seed.to_string()),
                ("trial".into(), trial.to_string()),
                ("trial_seed".into(), format!("{seed:#x}")),
                ("noise".into(), noise.to_string()),
            ],
            snapshot: None,
            log: run.log.clone(),
            expected_digest: run.digest,
            steps: run.steps,
            outcome: run.verdict.name().to_string(),
        };
        let name = format!(
            "{label}-{}-seed{campaign_seed}-trial{trial}.bundle",
            class.name()
        );
        let path = self.dir.join(name);
        if let Err(err) = std::fs::write(&path, bundle.to_bytes()) {
            eprintln!(
                "warning: cannot write repro bundle {}: {err}",
                path.display()
            );
        }
    }
}

/// Per-campaign knobs threaded down to every trial.
struct TrialOpts<'a> {
    trials: u64,
    noise: u64,
    repro: Option<&'a ReproSink>,
}

fn run_class(
    class: Class,
    stream: u64,
    protection: ProtectionConfig,
    label: &str,
    campaign_seed: u64,
    opts: &TrialOpts<'_>,
) -> Tally {
    let mut tally = Tally::default();
    for trial in 0..opts.trials {
        let seed = trial_seed(stream, trial);
        let run = run_trial(class, seed, protection, opts.noise);
        tally.record(run.verdict);
        if run.verdict != Verdict::Masked {
            if let Some(sink) = opts.repro {
                sink.write(class, label, campaign_seed, trial, seed, opts.noise, &run);
            }
        }
    }
    tally
}

fn run_config(label: &str, protection: ProtectionConfig, seed: u64, opts: &TrialOpts<'_>) -> u64 {
    println!("configuration: {label}");
    println!(
        "{:<22} {:>9} {:>9} {:>9} {:>9}",
        "fault class", "detected", "garbled", "masked", "silent"
    );
    let mut silent_total = 0;
    for (i, class) in Class::ALL.iter().enumerate() {
        // One independent sub-stream per (config, class) row, so adding a
        // class or reordering never perturbs the other rows' draws.
        let stream = seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1));
        let stream = stream ^ u64::from(label == "full");
        let tally = run_class(*class, stream, protection, label, seed, opts);
        println!(
            "{:<22} {:>9} {:>9} {:>9} {:>9}",
            class.name(),
            tally.detected,
            tally.garbled,
            tally.masked,
            tally.silent
        );
        silent_total += tally.silent;
    }
    println!();
    silent_total
}

/// Runs every configuration `config` names for one campaign seed and
/// returns the silent corruptions seen under full protection.
fn run_seed(seed: u64, config: &str, opts: &TrialOpts<'_>) -> u64 {
    let mut silent_under_full = 0;
    if config == "full" || config == "both" {
        silent_under_full = run_config("full", ProtectionConfig::full(), seed, opts);
    }
    if config == "off" || config == "both" {
        run_config("off", ProtectionConfig::off(), seed, opts);
    }
    silent_under_full
}

/// Decodes the campaign-specific metadata a bundle needs for replay.
fn bundle_params(bundle: &ReproBundle) -> Result<(Class, ProtectionConfig, u64), String> {
    if bundle.meta_value("harness") != Some("fault-campaign") {
        return Err("bundle was not produced by fault_campaign --repro-dir".to_string());
    }
    let class = bundle
        .meta_value("class")
        .and_then(Class::from_name)
        .ok_or_else(|| "bundle has no valid `class` metadata".to_string())?;
    let protection = match bundle.meta_value("config") {
        Some("full") => ProtectionConfig::full(),
        Some("off") => ProtectionConfig::off(),
        other => return Err(format!("bundle has unknown config {other:?}")),
    };
    let seed = bundle
        .meta_value("trial_seed")
        .and_then(|s| s.strip_prefix("0x"))
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| "bundle has no valid `trial_seed` metadata".to_string())?;
    Ok((class, protection, seed))
}

fn load_bundle(path: &str) -> Result<ReproBundle, String> {
    let bytes = std::fs::read(path).map_err(|err| format!("cannot read `{path}`: {err}"))?;
    ReproBundle::from_bytes(&bytes).map_err(|err| format!("`{path}` is not a valid bundle: {err}"))
}

/// `--replay BUNDLE`: re-runs the recorded trial and verifies both the
/// verdict and the final architectural digest bit-for-bit.
fn replay_mode(path: &str) -> Result<String, String> {
    let bundle = load_bundle(path)?;
    let (class, protection, seed) = bundle_params(&bundle)?;
    let faults: Vec<FaultKind> = bundle.log.events.iter().map(|e| e.kind).collect();
    let (verdict, digest) = replay_trial(class, seed, protection, &faults);
    if verdict.name() != bundle.outcome {
        return Err(format!(
            "REPLAY MISMATCH: bundle outcome `{}`, replay produced `{}`",
            bundle.outcome,
            verdict.name()
        ));
    }
    if digest != bundle.expected_digest {
        return Err(format!(
            "REPLAY MISMATCH: digest {digest:#018x} != expected {:#018x}",
            bundle.expected_digest
        ));
    }
    Ok(format!(
        "replay OK: {}/{} trial {} verdict `{}` reproduced bit-for-bit \
         ({} events, digest {digest:#018x})\n",
        bundle.meta_value("config").unwrap_or("?"),
        class.name(),
        bundle.meta_value("trial").unwrap_or("?"),
        verdict.name(),
        bundle.log.len(),
    ))
}

/// `--shrink BUNDLE`: ddmin-minimizes the bundle's event log to the faults
/// the verdict actually depends on and writes `BUNDLE.min`.
fn shrink_mode(path: &str) -> Result<String, String> {
    let bundle = load_bundle(path)?;
    let (class, protection, seed) = bundle_params(&bundle)?;
    let all: Vec<FaultKind> = bundle.log.events.iter().map(|e| e.kind).collect();
    let (verdict, _) = replay_trial(class, seed, protection, &all);
    if verdict.name() != bundle.outcome {
        return Err(format!(
            "bundle does not reproduce (outcome `{}`, replay `{}`); refusing to shrink",
            bundle.outcome,
            verdict.name()
        ));
    }
    let target = verdict;
    let minimal = shrink_events(&bundle.log.events, |candidate| {
        let faults: Vec<FaultKind> = candidate.iter().map(|e| e.kind).collect();
        replay_trial(class, seed, protection, &faults).0 == target
    });
    let faults: Vec<FaultKind> = minimal.iter().map(|e| e.kind).collect();
    let (_, digest) = replay_trial(class, seed, protection, &faults);
    let mut meta = bundle.meta.clone();
    meta.push(("shrunk_from".into(), bundle.log.len().to_string()));
    let min_bundle = ReproBundle {
        meta,
        snapshot: None,
        log: bundle.log.with_events(minimal.clone()),
        expected_digest: digest,
        steps: bundle.steps,
        outcome: bundle.outcome.clone(),
    };
    let out_path = format!("{path}.min");
    std::fs::write(&out_path, min_bundle.to_bytes())
        .map_err(|err| format!("cannot write `{out_path}`: {err}"))?;
    let before = bundle.log.len().max(1);
    Ok(format!(
        "shrunk event log: {} -> {} events ({}%)\nminimized bundle written to {out_path}\n",
        bundle.log.len(),
        minimal.len(),
        minimal.len() * 100 / before,
    ))
}

/// Command-line options.
#[derive(Default)]
struct Options {
    seed: u64,
    trials: u64,
    config: String,
    noise: u64,
    repro_dir: Option<String>,
    replay: Option<String>,
    shrink: Option<String>,
    help: bool,
}

const ABOUT: &str = "usage: fault_campaign [FLAGS]
       fault_campaign --replay BUNDLE
       fault_campaign --shrink BUNDLE

Runs seeded fault-injection trials per fault class and configuration and
reports Detected/Garbled/Masked/SilentCorruption counts. Exits nonzero
when full protection shows silent corruption.";

#[rustfmt::skip]
const FLAGS: &[Flag<Options>] = &[
    Flag::value("--seed", "N", "campaign seed", |o, v| set(&mut o.seed, num(v)?)),
    Flag::value("--trials", "N", "trials per fault class", |o, v| set(&mut o.trials, num(v)?)),
    Flag::value("--config", "full|off|both", "configurations to run",
        |o, v| set(&mut o.config, v.to_owned())),
    Flag::value("--noise", "N", "pad each trial with N harmless scratch-page faults",
        |o, v| set(&mut o.noise, num(v)?)),
    Flag::value("--repro-dir", "DIR", "write a repro bundle for every non-Masked outcome",
        |o, v| set(&mut o.repro_dir, Some(v.to_owned()))),
    Flag::value("--replay", "BUNDLE", "re-run a recorded trial, check verdict + digest",
        |o, v| set(&mut o.replay, Some(v.to_owned()))),
    Flag::value("--shrink", "BUNDLE", "ddmin-minimize the event log, write BUNDLE.min",
        |o, v| set(&mut o.shrink, Some(v.to_owned()))),
    Flag::switch("--help", "print this text", |o, _| set(&mut o.help, true)),
];

fn usage() -> ! {
    eprintln!("{ABOUT}\n\nFLAGS:\n{}", args::usage(FLAGS));
    std::process::exit(2)
}

fn main() -> ExitCode {
    let mut o = Options {
        seed: 42,
        trials: 200,
        config: String::from("both"),
        ..Options::default()
    };
    args::parse_env("fault_campaign", FLAGS, &mut o, 2);
    if o.help {
        usage();
    }

    if let Some(path) = o.replay {
        return match replay_mode(&path) {
            Ok(report) => {
                print!("{report}");
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("{err}");
                ExitCode::from(1)
            }
        };
    }
    if let Some(path) = o.shrink {
        return match shrink_mode(&path) {
            Ok(report) => {
                print!("{report}");
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("{err}");
                ExitCode::from(1)
            }
        };
    }

    if !matches!(o.config.as_str(), "full" | "off" | "both") {
        usage();
    }

    let repro = o.repro_dir.map(|dir| {
        let dir = PathBuf::from(dir);
        if let Err(err) = std::fs::create_dir_all(&dir) {
            eprintln!("cannot create repro dir {}: {err}", dir.display());
            std::process::exit(2);
        }
        ReproSink { dir }
    });

    println!(
        "RegVault fault-injection campaign (seed={}, trials={} per class)\n",
        o.seed, o.trials
    );
    let opts = TrialOpts {
        trials: o.trials,
        noise: o.noise,
        repro: repro.as_ref(),
    };
    let silent_under_full = run_seed(o.seed, &o.config, &opts);

    if silent_under_full > 0 {
        println!("FINDING: {silent_under_full} silent corruption(s) under full protection");
        ExitCode::from(1)
    } else {
        if o.config != "off" {
            println!("no silent corruption under full protection");
        }
        ExitCode::SUCCESS
    }
}
