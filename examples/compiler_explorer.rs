//! Compiler explorer: see exactly what the RegVault instrumentation does
//! to a kernel-style function, configuration by configuration.
//!
//! Builds the paper's running example — `cred.uid` annotated with
//! `__rand_integrity` — and prints the generated assembly for the baseline
//! and the FULL configuration side by side, plus the instrumentation
//! density for every configuration.
//!
//! Run with: `cargo run --example compiler_explorer`

use regvault::prelude::*;
use regvault_isa::disasm;

fn module() -> Module {
    let mut module = Module::new("explorer");
    // struct cred { u64 usage; kuid_t uid __rand_integrity; u64 session
    // __rand_integrity; void (*handler)(); };
    let sid = module.add_struct(StructDef::new(
        "cred",
        vec![
            FieldDef::plain("usage", FieldType::I64),
            FieldDef::annotated("uid", FieldType::I32, Annotation::RandIntegrity),
            FieldDef::annotated("session", FieldType::I64, Annotation::RandIntegrity),
            FieldDef::plain("handler", FieldType::FnPtr),
        ],
    ));
    module.add_global("init_cred", 64);

    // fn commit_creds(uid, session) { init_cred.uid = uid;
    //                                 init_cred.session = session;
    //                                 return init_cred.uid; }
    let mut f = FunctionBuilder::new("commit_creds", 2);
    let uid = f.param(0);
    let session = f.param(1);
    let cred = f.global_addr("init_cred");
    f.store_field(cred, sid, 1, uid);
    f.store_field(cred, sid, 2, session);
    let out = f.load_field(cred, sid, 1);
    f.ret(Some(out));
    module.add_function(f.build());

    // main so the module links standalone.
    let mut f = FunctionBuilder::new("main", 0);
    let uid = f.konst(1000);
    let session = f.konst(0x5E55);
    let got = f.call("commit_creds", &[uid, session]);
    f.ret(Some(got));
    module.add_function(f.build());
    module
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let module = module();

    println!("source (IR view):\n");
    println!("  struct cred {{");
    println!("      u64    usage;");
    println!("      kuid_t uid      __rand_integrity;   // one 64-bit block");
    println!("      u64    session  __rand_integrity;   // two blocks (Fig. 2c)");
    println!("      void (*handler)();");
    println!("  }};");
    println!("  fn commit_creds(uid, session) {{ ... }}\n");

    for (label, config) in [
        ("BASELINE", CompileConfig::none()),
        ("FULL PROTECTION", CompileConfig::full()),
    ] {
        let compiled = regvault_compiler::compile(&module, &config)?;
        println!("==== {label}: commit_creds ====");
        let mut in_function = false;
        for line in compiled.asm_text().lines() {
            if line.starts_with("commit_creds:") {
                in_function = true;
            } else if in_function && line.ends_with(':') && !line.starts_with(".L") {
                break;
            }
            if in_function {
                println!("{line}");
            }
        }
        println!();
    }

    println!("instrumentation density (cre/crd per instruction):");
    for (label, config) in [
        ("none", CompileConfig::none()),
        ("ra", CompileConfig::ra_only()),
        ("fp", CompileConfig::fp_only()),
        ("non-control", CompileConfig::non_control()),
        ("full", CompileConfig::full()),
    ] {
        let compiled = regvault_compiler::compile(&module, &config)?;
        let (crypto, total) = disasm::crypto_density(compiled.bytes());
        println!(
            "  {label:<12} {crypto:>3} crypto / {total:>3} instructions \
             ({:.1}%)",
            100.0 * crypto as f64 / total as f64
        );
    }

    Ok(())
}
