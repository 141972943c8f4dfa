//! Cross-crate integration: compiler → simulator → kernel pipeline.

use regvault::prelude::*;

/// Builds a kernel-style module: a `cred`-like struct with annotated
/// fields, written and read back through instrumented accessors.
fn cred_module() -> (Module, StructId) {
    let mut module = Module::new("integration");
    let sid = module.add_struct(StructDef::new(
        "cred",
        vec![
            FieldDef::plain("usage", FieldType::I64),
            FieldDef::annotated("uid", FieldType::I32, Annotation::RandIntegrity),
            FieldDef::annotated("token", FieldType::I64, Annotation::RandIntegrity),
            FieldDef::annotated("blob", FieldType::I64, Annotation::Rand),
            FieldDef::plain("handler", FieldType::FnPtr),
        ],
    ));
    module.add_global("the_cred", 64);
    module.add_global("copy_cred", 64);

    // main: populate, copy (with re-encryption), read back from the copy.
    let mut f = FunctionBuilder::new("main", 0);
    let cred = f.global_addr("the_cred");
    let uid = f.konst(1000);
    f.store_field(cred, sid, 1, uid);
    let token = f.konst(0x1122_3344_5566);
    f.store_field(cred, sid, 2, token);
    let blob = f.konst(0x0BAD_BEEF);
    f.store_field(cred, sid, 3, blob);
    let copy = f.global_addr("copy_cred");
    f.copy_struct(copy, cred, sid);
    let got_uid = f.load_field(copy, sid, 1);
    let got_token = f.load_field(copy, sid, 2);
    let got_blob = f.load_field(copy, sid, 3);
    // checksum = uid + token + blob
    let sum = f.bin(AluOp::Add, got_uid, got_token);
    let sum = f.bin(AluOp::Add, sum, got_blob);
    f.ret(Some(sum));
    module.add_function(f.build());
    (module, sid)
}

fn run_with_config(config: &CompileConfig) -> (u64, Machine, CompiledProgram) {
    let (module, _) = cred_module();
    let compiled = regvault_compiler::compile(&module, config).expect("compiles");
    let mut machine = Machine::new(MachineConfig::default());
    for key in [KeyReg::A, KeyReg::B, KeyReg::D, KeyReg::E] {
        machine
            .write_key_register(key, 0x1000 + key.ksel() as u64, 0x2000)
            .unwrap();
    }
    let entry = compiled.load(&mut machine, 0x8000_0000);
    machine.memory_mut().map_region(0x7000_0000, 0x20000);
    machine.hart_mut().set_reg(Reg::Sp, 0x7001_0000);
    machine.hart_mut().set_pc(entry);
    machine.run_until_break(1_000_000).expect("runs");
    (machine.hart().reg(Reg::A0), machine, compiled)
}

const EXPECTED: u64 = 1000 + 0x1122_3344_5566 + 0x0BAD_BEEF;

#[test]
fn every_config_computes_the_same_result() {
    for config in [
        CompileConfig::none(),
        CompileConfig::ra_only(),
        CompileConfig::fp_only(),
        CompileConfig::non_control(),
        CompileConfig::full(),
    ] {
        let (result, _, _) = run_with_config(&config);
        assert_eq!(result, EXPECTED, "{config:?}");
    }
}

#[test]
fn protected_fields_are_ciphertext_in_guest_memory() {
    let (_, machine, compiled) = run_with_config(&CompileConfig::full());
    let cred = 0x8000_0000 + compiled.symbol("the_cred").unwrap();
    // uid field is at offset 8 (after the plain usage word).
    let uid_block = machine.memory().read_u64(cred + 8).unwrap();
    assert_ne!(uid_block, 1000, "uid must not be plaintext");

    let (_, machine, compiled) = run_with_config(&CompileConfig::none());
    let cred = 0x8000_0000 + compiled.symbol("the_cred").unwrap();
    let uid_plain = machine.memory().read_u64(cred + 8).unwrap();
    assert_eq!(uid_plain, 1000, "baseline stores plaintext");
}

#[test]
fn copy_reencrypts_under_destination_addresses() {
    // After copy_struct, the copy's ciphertext must differ from the
    // original's (different address tweak), yet decrypt to the same value.
    let (_, machine, compiled) = run_with_config(&CompileConfig::full());
    let src = 0x8000_0000 + compiled.symbol("the_cred").unwrap();
    let dst = 0x8000_0000 + compiled.symbol("copy_cred").unwrap();
    let src_block = machine.memory().read_u64(src + 8).unwrap();
    let dst_block = machine.memory().read_u64(dst + 8).unwrap();
    assert_ne!(src_block, dst_block, "same value, different tweak");
}

#[test]
fn full_protection_emits_the_expected_primitives() {
    let (module, _) = cred_module();
    let compiled = regvault_compiler::compile(&module, &CompileConfig::full()).expect("compiles");
    let asm = compiled.asm_text();
    // Data key d for annotated fields, spill key e available, RA key a in
    // prologues.
    assert!(asm.contains("creak ra, ra[7:0], sp"), "RA prologue");
    assert!(asm.contains("credk"), "data encryption under key d");
    assert!(asm.contains("crddk"), "data decryption under key d");
    // The 64-bit integrity split uses both half ranges (Figure 2c).
    assert!(asm.contains("[3:0]"));
    assert!(asm.contains("[7:4]"));
}

#[test]
fn baseline_emits_no_primitives_at_all() {
    let (module, _) = cred_module();
    let compiled = regvault_compiler::compile(&module, &CompileConfig::none()).expect("compiles");
    assert_eq!(compiled.count_mnemonic("cre"), 0);
    assert_eq!(compiled.count_mnemonic("crd"), 0);
}

#[test]
fn attacker_corruption_of_compiled_output_is_detected() {
    // Corrupt the instrumented uid field in guest memory, then run a
    // reader program: the crd zero-check must fire.
    let (module, sid) = cred_module();
    let mut reader = Module::new("reader");
    reader.structs = module.structs.clone();
    reader.globals = module.globals.clone();
    let mut f = FunctionBuilder::new("main", 0);
    let cred = f.global_addr("the_cred");
    let uid = f.load_field(cred, sid, 1);
    f.ret(Some(uid));
    reader.add_function(f.build());

    let config = CompileConfig::full();
    let (_, mut machine, compiled) = run_with_config(&config);
    let cred_addr = 0x8000_0000 + compiled.symbol("the_cred").unwrap();
    // The attack: overwrite the encrypted uid with a chosen value.
    machine.memory_mut().write_u64(cred_addr + 8, 0).unwrap();

    let reader_compiled = regvault_compiler::compile(&reader, &config).expect("compiles");
    // Load the reader at a different base but alias its cred global onto
    // the victim's by rebasing: simpler — run the reader where its own
    // global lives and copy the corrupted block there.
    let reader_entry = reader_compiled.load(&mut machine, 0x9000_0000);
    let reader_cred = 0x9000_0000 + reader_compiled.symbol("the_cred").unwrap();
    machine.memory_mut().write_u64(reader_cred + 8, 0).unwrap();
    machine.hart_mut().set_pc(reader_entry);
    machine.hart_mut().set_reg(Reg::Sp, 0x7001_0000);
    let err = machine.run_until_break(100_000).unwrap_err();
    assert!(matches!(
        err,
        regvault_sim::SimError::UnhandledException {
            cause: regvault_sim::ExceptionCause::IntegrityCheckFailure,
            ..
        }
    ));
}

#[test]
fn sensitive_spills_are_encrypted_by_the_allocator() {
    // A function with enormous register pressure on decrypted values: the
    // spill path must carry crypto when protect_spills is on.
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
    let init = f.konst(0x5EC0_0001);
    f.store_field(base, sid, 0, init);
    // Load the secret many times into simultaneously-live values.
    let secrets: Vec<_> = (0..20).map(|_| f.load_field(base, sid, 0)).collect();
    let mut acc = secrets[0];
    for &s in &secrets[1..] {
        acc = f.bin(AluOp::Add, acc, s);
    }
    f.ret(Some(acc));
    module.add_function(f.build());

    let full = regvault_compiler::compile(&module, &CompileConfig::full()).unwrap();
    // Count spill-key (e) operations — they exist only when sensitive
    // values had to be spilled.
    assert!(
        full.asm_text().contains("creek") || full.asm_text().contains("crdek"),
        "expected encrypted spills in:\n{}",
        full.asm_text()
    );

    // And the program still computes correctly.
    let mut machine = Machine::new(MachineConfig::default());
    for key in [KeyReg::A, KeyReg::B, KeyReg::D, KeyReg::E] {
        machine.write_key_register(key, 3, 4).unwrap();
    }
    let entry = full.load(&mut machine, 0x8000_0000);
    machine.memory_mut().map_region(0x7000_0000, 0x20000);
    machine.hart_mut().set_reg(Reg::Sp, 0x7001_0000);
    machine.hart_mut().set_pc(entry);
    machine.run_until_break(1_000_000).unwrap();
    assert_eq!(machine.hart().reg(Reg::A0), 0x5EC0_0001 * 20);
}
