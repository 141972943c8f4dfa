//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. address tweaks vs a constant tweak (why Table 2 uses storage
//!    addresses);
//! 2. integrity range `[3:0]` vs confidentiality-only `[7:0]` (detection
//!    probability of blind corruption);
//! 3. chain-based interrupt context protection vs independent per-slot
//!    tweaks (what the chain buys);
//! 4. raised spill costs for sensitive registers (how many sensitive
//!    values reach memory);
//! 5. the XOR-based DSR baseline vs the QARMA primitive;
//! 6. sensitivity to the crypto-engine latency.
//!
//! Prints each study and writes the outcomes to `BENCH_ablations.json`.

use regvault_bench::{json::Value, write_figure_json};
use regvault_compiler::prelude::*;
use regvault_compiler::regalloc::{self, Loc};
use regvault_isa::{ByteRange, Reg};
use regvault_kernel::{Kernel, KernelConfig, KernelError, ProtectionConfig, Sysno};
use regvault_qarma::Key;
use regvault_sim::{CostModel, CryptoEngine, MachineConfig};

fn main() {
    let report = Value::obj([
        ("tweak_choice", tweak_choice()),
        ("integrity_range", integrity_range()),
        ("chain_vs_independent", chain_vs_independent()),
        ("spill_cost", spill_cost()),
        ("xor_dsr_vs_regvault", xor_dsr_vs_regvault()),
        ("crypto_latency", crypto_latency_sensitivity()),
    ]);
    write_figure_json("ablations", &report);
}

/// 1: encrypt the same pointer at two addresses; swap the ciphertexts.
fn tweak_choice() -> Value {
    println!("=== Ablation 1: address tweak vs constant tweak ===");
    let mut engine = CryptoEngine::new(8, 1);
    engine.write_key(KeyReg::B, Key::new(7, 8));
    let (addr_a, addr_b) = (0x9000u64, 0x9008u64);
    let pointer = 0xFFFF_FFFF_8000_1000u64;

    let mut rows = Vec::new();
    for (label, tweak_a, tweak_b) in [
        ("storage-address tweak", addr_a, addr_b),
        ("constant tweak", 0u64, 0u64),
    ] {
        let ct_a = engine
            .encrypt(KeyReg::B, tweak_a, pointer, ByteRange::FULL)
            .value;
        let ct_b = engine
            .encrypt(KeyReg::B, tweak_b, pointer + 0x40, ByteRange::FULL)
            .value;
        // The substitution: slot A now holds B's ciphertext; the victim
        // decrypts it with slot A's tweak.
        let substituted = engine
            .decrypt(KeyReg::B, tweak_a, ct_b, ByteRange::FULL)
            .expect("full range")
            .value;
        let hijacked = substituted == pointer + 0x40;
        println!(
            "  {label:<24} -> substituted value decrypts to {substituted:#018x} ({})",
            if hijacked {
                "ATTACKER-CHOSEN: substitution works"
            } else {
                "garbage: substitution defeated"
            }
        );
        let _ = ct_a;
        rows.push(Value::obj([
            ("tweak", Value::from(label)),
            ("substitution_works", Value::from(hijacked)),
        ]));
    }
    println!();
    Value::arr(rows)
}

/// 2: how often does blind ciphertext corruption survive the zero check?
fn integrity_range() -> Value {
    println!("=== Ablation 2: integrity range [3:0] vs confidentiality-only [7:0] ===");
    let mut engine = CryptoEngine::new(0, 2);
    engine.write_key(KeyReg::D, Key::new(9, 10));
    let trials = 20_000u64;
    let mut rows = Vec::new();
    for (label, range) in [
        ("[3:0] (integrity)", ByteRange::LOW32),
        ("[7:0] (conf only)", ByteRange::FULL),
    ] {
        let ct = engine.encrypt(KeyReg::D, 0x40, 1000, range).value;
        let mut undetected = 0u64;
        for i in 1..=trials {
            // Deterministic corruption sweep.
            let corrupted = ct ^ (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            if engine.decrypt(KeyReg::D, 0x40, corrupted, range).is_ok() {
                undetected += 1;
            }
        }
        println!(
            "  {label:<20} -> {undetected}/{trials} corruptions undetected \
             (expected ~{:.5} for 2^-32 per trial)",
            trials as f64 / 2f64.powi(32)
        );
        rows.push(Value::obj([
            ("range", Value::from(label)),
            ("trials", Value::from(trials)),
            ("undetected", Value::from(undetected)),
        ]));
    }
    println!("  The 32-bit zero redundancy detects corruption w.p. 1 - 2^-32;");
    println!("  the full range detects nothing (it garbles instead).\n");
    Value::arr(rows)
}

/// 3: CIP's chained tweaks vs independent per-slot address tweaks.
fn chain_vs_independent() -> Value {
    println!("=== Ablation 3: chained vs independent interrupt-context tweaks ===");
    // Independent variant: each register encrypted with its own slot
    // address as tweak, no trailing zero. An attacker REORDERS two saved
    // registers by swapping whole blocks... with address tweaks that is
    // caught; but REPLAYING an old value of the same slot is not.
    let mut engine = CryptoEngine::new(0, 3);
    engine.write_key(KeyReg::C, Key::new(11, 12));
    let frame = 0xFFFF_FFC0_0100_0000u64;

    // Replay attack: the attacker records slot 0 from an earlier interrupt
    // (when ra = old_value) and replays it later.
    let old_ra = 0xFFFF_FFFF_8000_0AAAu64;
    let new_ra = 0xFFFF_FFFF_8000_0BBBu64;
    let old_block = engine
        .encrypt(KeyReg::C, frame, old_ra, ByteRange::FULL)
        .value;
    let _new_block = engine
        .encrypt(KeyReg::C, frame, new_ra, ByteRange::FULL)
        .value;
    // Independent tweaks: the replayed block decrypts fine (same tweak!).
    let replayed = engine
        .decrypt(KeyReg::C, frame, old_block, ByteRange::FULL)
        .expect("full range")
        .value;
    println!(
        "  independent tweaks -> replayed old ra decrypts to {replayed:#018x} \
         ({}: stale-but-valid value accepted)",
        if replayed == old_ra {
            "REPLAY WORKS"
        } else {
            "garbled"
        }
    );

    // Chain: the tweak of each slot is the previous plaintext, and a
    // trailing zero closes the chain, so replacing any slot (with a replay
    // or anything else) garbles everything after it and trips the check.
    let mut kernel = Kernel::boot(KernelConfig {
        protection: ProtectionConfig::full(),
        ..KernelConfig::default()
    })
    .expect("boot");
    let cfg = kernel.protection();
    let tid = kernel.current_tid();
    let frame = kernel.threads.interrupt_frame_addr(tid);
    let key = cfg.key_policy().interrupt;
    kernel.machine_mut().hart_mut().set_reg(Reg::Ra, new_ra);
    regvault_kernel::trap::save_context(kernel.machine_mut(), &cfg, key, frame).unwrap();
    // Replay: overwrite slot 0 with a block recorded from an earlier save.
    kernel.machine_mut().hart_mut().set_reg(Reg::Ra, old_ra);
    regvault_kernel::trap::save_context(kernel.machine_mut(), &cfg, key, frame).unwrap();
    let recorded = kernel.machine().memory().read_u64(frame).unwrap();
    kernel.machine_mut().hart_mut().set_reg(Reg::Ra, new_ra);
    regvault_kernel::trap::save_context(kernel.machine_mut(), &cfg, key, frame).unwrap();
    kernel
        .machine_mut()
        .memory_mut()
        .write_u64(frame, recorded)
        .unwrap();
    let outcome = regvault_kernel::trap::restore_context(kernel.machine_mut(), &cfg, key, frame);
    let chain = match outcome {
        Err(KernelError::IntegrityViolation { .. }) => "detected by the chain's zero check",
        Err(_) => "failed otherwise",
        Ok(_) => "NOT DETECTED (unexpected)",
    };
    println!("  chained tweaks     -> replayed slot 0: {chain}");
    println!();
    Value::obj([
        (
            "independent_replay_accepted",
            Value::from(replayed == old_ra),
        ),
        ("chained_replay", Value::from(chain)),
    ])
}

/// 4: raised spill costs — how many sensitive values reach memory.
fn spill_cost() -> Value {
    println!("=== Ablation 4: sensitive spill-cost raising ===");
    // A register-pressure module with both sensitive (decrypted) and
    // non-sensitive values alive simultaneously.
    let mut module = Module::new("pressure");
    let sid = module.add_struct(StructDef::new(
        "vault",
        vec![FieldDef::annotated(
            "secret",
            FieldType::I64,
            Annotation::Rand,
        )],
    ));
    module.add_global("vault", 8);
    let mut f = FunctionBuilder::new("main", 0);
    let base = f.global_addr("vault");
    let seed = f.konst(0x5EC0);
    f.store_field(base, sid, 0, seed);
    let mut values = Vec::new();
    for i in 0..6 {
        values.push(f.load_field(base, sid, 0)); // sensitive
        let k = f.konst(i); // non-sensitive
        values.push(k);
    }
    let mut acc = values[0];
    for &v in &values[1..] {
        acc = f.bin(AluOp::Add, acc, v);
    }
    f.ret(Some(acc));
    module.add_function(f.build());

    let mut rows = Vec::new();
    for (label, config) in [
        ("spill protection OFF", CompileConfig::non_control()),
        ("spill protection ON ", CompileConfig::full()),
    ] {
        let instrumented = regvault_compiler::instrument::instrument(&module, &config).unwrap();
        let function = instrumented.function("main").unwrap();
        let alloc = regalloc::allocate(function, &config);
        let sensitive_spills = alloc
            .locs
            .iter()
            .filter(|(v, loc)| matches!(loc, Loc::Spill(_)) && alloc.sensitive.contains(v))
            .count();
        let total_spills = alloc
            .locs
            .values()
            .filter(|loc| matches!(loc, Loc::Spill(_)))
            .count();
        println!(
            "  {label} -> {total_spills} spills total, {sensitive_spills} carry sensitive data \
             ({})",
            if config.protect_spills {
                "each wrapped in cre/crd"
            } else {
                "written as plaintext"
            }
        );
        rows.push(Value::obj([
            ("protect_spills", Value::from(config.protect_spills)),
            ("spills", Value::from(total_spills)),
            ("sensitive_spills", Value::from(sensitive_spills)),
        ]));
    }
    println!(
        "  With protection on, sensitive values are confined to caller-saved\n\
         \x20 registers (cross-call protection), so more of them spill — but every\n\
         \x20 spilled byte is ciphertext. Without protection nothing spills here,\n\
         \x20 yet any spill that pressure did force would be plaintext."
    );
    Value::arr(rows)
}

/// 5: the XOR-based DSR baseline (DSR/HARD/CoDaRR) vs the QARMA primitive
/// under a memory-disclosure attacker — the paper's §1/§5 motivation.
fn xor_dsr_vs_regvault() -> Value {
    use regvault_attacks::xor_dsr::{forge, recover_mask, XorDsr};

    println!("\n=== Ablation 5: XOR-based DSR baseline vs QARMA RegVault ===");
    // Scenario: the attacker knows their own uid (1000), leaks its
    // randomized form from memory, and tries to forge uid = 0.
    let dsr = XorDsr::new(0xD5E, 1);
    let observed = dsr.randomize(0, 1000);
    let mask = recover_mask(1000, observed);
    let forged = forge(mask, 0);
    let dsr_forged = dsr.derandomize(0, forged);
    println!(
        "  XOR DSR  -> leaked(1000) = {observed:#018x}; recovered mask; forged \
         block decodes to uid {dsr_forged}"
    );

    let mut engine = CryptoEngine::new(0, 0xD5E);
    engine.write_key(KeyReg::D, Key::new(0xAA, 0xBB));
    let observed = engine.encrypt(KeyReg::D, 0x40, 1000, ByteRange::FULL).value;
    let pseudo_mask = recover_mask(1000, observed);
    let forged = forge(pseudo_mask, 0);
    let decoded = engine
        .decrypt(KeyReg::D, 0x40, forged, ByteRange::FULL)
        .expect("full range")
        .value;
    println!(
        "  RegVault -> leaked(1000) = {observed:#018x}; same attack decodes to \
         {decoded:#018x} (garbage)"
    );
    println!(
        "  Linearity is the whole story: one known plaintext breaks an XOR\n\
         \x20 class forever, while QARMA's pseudo-random permutation gives the\n\
         \x20 attacker nothing transferable."
    );
    Value::obj([
        ("xor_dsr_forged_uid", Value::from(dsr_forged)),
        ("regvault_forged_decodes_to", Value::from(decoded)),
    ])
}

/// 6: sensitivity to the crypto-engine latency — the paper's 3-cycle QARMA
/// against slower hypothetical engines (and a 1-cycle ideal).
fn crypto_latency_sensitivity() -> Value {
    println!("\n=== Ablation 6: crypto-engine latency sensitivity ===");
    println!("  (getuid+null syscall mix, FULL protection)");
    println!(
        "  {:<22} {:>12} {:>12}",
        "QARMA latency", "CLB = 8", "CLB = 0"
    );
    let mut rows = Vec::new();
    for miss_latency in [1u64, 3, 5, 8, 16] {
        let cost = CostModel {
            crypto_miss: miss_latency,
            ..CostModel::default()
        };
        let mut row = Vec::new();
        for clb_entries in [8usize, 0] {
            let mut cycles = Vec::new();
            for protection in [ProtectionConfig::full(), ProtectionConfig::off()] {
                let mut kernel = Kernel::boot(KernelConfig {
                    protection,
                    machine: MachineConfig {
                        cost,
                        clb_entries,
                        ..MachineConfig::default()
                    },
                    ..KernelConfig::default()
                })
                .expect("boot");
                kernel.machine_mut().reset_stats();
                for _ in 0..300 {
                    kernel
                        .dispatch(Sysno::Getuid as u64, [0; 3])
                        .expect("getuid");
                    kernel.dispatch(Sysno::Null as u64, [0; 3]).expect("null");
                }
                cycles.push(kernel.machine().stats().cycles);
            }
            row.push(cycles[0] as f64 / cycles[1] as f64 - 1.0);
        }
        println!(
            "  {:<22} {:>11.2}% {:>11.2}%{}",
            format!("{miss_latency} cycles"),
            row[0] * 100.0,
            row[1] * 100.0,
            if miss_latency == 3 {
                "   <- the paper's engine"
            } else {
                ""
            }
        );
        rows.push(Value::obj([
            ("miss_cycles", Value::from(miss_latency)),
            ("overhead_clb_8", Value::from(row[0])),
            ("overhead_clb_0", Value::from(row[1])),
        ]));
    }
    println!("  With the CLB the hot syscall working set hits the buffer and the");
    println!("  engine latency barely matters; without it, overhead scales with");
    println!("  the engine's cycle count — the CLB is what buys latency freedom.");
    Value::arr(rows)
}
