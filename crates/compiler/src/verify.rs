//! The post-codegen protection verifier gate.
//!
//! After linking, the compiler re-checks its own output with the
//! independent binary-level verifier (`regvault-verifier`): the instrumented
//! IR is distilled into a [`ProtectionManifest`] (which registers carry
//! sensitive plaintext at entry, and a lower bound on the crypto population
//! per function), and the linked image is taint-analysed against the
//! RegVault invariants. Any violation aborts compilation with
//! [`CompileError::Verification`], so a bug in instrumentation, register
//! allocation, or codegen cannot silently void the threat model.
//!
//! Enabled by the `verifier` cargo feature (on by default) and gated at
//! runtime by [`CompileConfig::verify_output`].

use regvault_isa::abi;
use regvault_verifier::{FnExpect, ProtectionManifest, TaintOptions, VerifyOptions};

use crate::codegen::CompiledProgram;
use crate::config::CompileConfig;
use crate::error::CompileError;
use crate::ir::{Function, Inst, Module, Terminator};
use crate::regalloc;

/// Derives the verification manifest from an *instrumented* (post-pass)
/// module: what the compiler is promising the binary will contain.
#[must_use]
pub fn manifest_for(module: &Module, config: &CompileConfig) -> ProtectionManifest {
    let mut manifest = ProtectionManifest {
        data_symbols: module
            .globals
            .iter()
            .filter(|g| !g.is_key)
            .map(|g| g.name.clone())
            .collect(),
        key_symbols: module
            .globals
            .iter()
            .filter(|g| g.is_key)
            .map(|g| g.name.clone())
            .collect(),
        ..ProtectionManifest::default()
    };
    for function in &module.functions {
        manifest
            .functions
            .insert(function.name.clone(), expect_for(function, config));
    }
    manifest
}

fn expect_for(function: &Function, config: &CompileConfig) -> FnExpect {
    let mut expect = FnExpect::default();
    let mut rets = 0usize;
    for block in &function.blocks {
        for inst in &block.insts {
            match inst {
                Inst::Encrypt { .. } => expect.min_cre += 1,
                Inst::Decrypt { .. } => expect.min_crd += 1,
                _ => {}
            }
        }
        if matches!(block.term, Terminator::Ret(_)) {
            rets += 1;
        }
    }
    if config.protect_ra {
        // Prologue wraps `ra` once; every epilogue unwraps it.
        expect.min_cre += 1;
        expect.min_crd += rets;
        expect.entry_sensitive.push(regvault_isa::Reg::Ra);
    }
    if config.protect_spills {
        let sensitive = regalloc::sensitive_vregs(function);
        for i in 0..function.num_params.min(abi::ARG_REGS.len()) {
            if sensitive.contains(&(i as u32)) {
                expect.entry_sensitive.push(abi::ARG_REGS[i]);
            }
        }
    }
    expect
}

/// The [`VerifyOptions`] the gate uses for `config`.
#[must_use]
pub fn options_for(config: &CompileConfig) -> VerifyOptions {
    VerifyOptions {
        taint: TaintOptions {
            // Without spill protection the compiler legitimately keeps
            // decrypted values plain, so crd results must not taint.
            decrypt_taints: config.protect_spills,
            ..TaintOptions::default()
        },
        interprocedural: config.verify_interprocedural,
        ..VerifyOptions::default()
    }
}

/// Verifies a linked program against the manifest derived from the
/// *instrumented* `module`, returning the full verifier report.
#[must_use]
pub fn report(
    compiled: &CompiledProgram,
    module: &Module,
    config: &CompileConfig,
) -> regvault_verifier::Report {
    let manifest = manifest_for(module, config);
    regvault_verifier::verify(
        compiled.bytes(),
        compiled.symbols().iter(),
        &manifest,
        &options_for(config),
    )
}

/// Like [`report`], but starting from a *source* module: re-derives the
/// instrumented IR exactly as [`crate::compile`] does before building the
/// manifest. This is what external tools (the CLI) use, since they hold the
/// pre-instrumentation module.
///
/// # Errors
///
/// Propagates instrumentation errors on malformed IR.
pub fn report_for_source(
    compiled: &CompiledProgram,
    module: &Module,
    config: &CompileConfig,
) -> Result<regvault_verifier::Report, CompileError> {
    let mut instrumented = crate::instrument::instrument(module, config)?;
    if config.optimize {
        crate::opt::optimize(&mut instrumented);
    }
    Ok(report(compiled, &instrumented, config))
}

/// Verifies a linked program against the manifest derived from `module`.
///
/// # Errors
///
/// Returns [`CompileError::Verification`] carrying the verifier's
/// human-readable report when any *error-severity* invariant is violated.
/// Interprocedural lint warnings (tweak diversity, raw key flow) do not
/// fail compilation; `regvault-cli verify`, which CI runs over the corpus,
/// fails on them.
pub fn check(
    compiled: &CompiledProgram,
    module: &Module,
    config: &CompileConfig,
) -> Result<(), CompileError> {
    let r = report(compiled, module, config);
    if r.has_errors() {
        Err(CompileError::Verification(r.render_human()))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instrument;
    use crate::ir::FunctionBuilder;
    use crate::types::{Annotation, FieldDef, FieldType, StructDef};

    fn demo_module() -> Module {
        let mut module = Module::new("gate");
        let cred = module.add_struct(StructDef::new(
            "cred",
            vec![FieldDef::annotated("uid", FieldType::I64, Annotation::Rand)],
        ));
        let mut f = FunctionBuilder::new("set_uid", 2);
        let (ptr, uid) = (f.param(0), f.param(1));
        f.store_field(ptr, cred, 0, uid);
        f.ret(None);
        module.add_function(f.build());
        module
    }

    #[test]
    fn manifest_counts_crypto_and_seeds_ra() {
        let config = CompileConfig::full();
        let instrumented = instrument::instrument(&demo_module(), &config).unwrap();
        let manifest = manifest_for(&instrumented, &config);
        let expect = &manifest.functions["set_uid"];
        // The annotated store instruments one Encrypt, plus the RA wrap.
        assert!(expect.min_cre >= 2);
        assert!(expect.entry_sensitive.contains(&regvault_isa::Reg::Ra));
    }

    #[test]
    fn manifest_without_protections_is_quiet() {
        let config = CompileConfig::none();
        let instrumented = instrument::instrument(&demo_module(), &config).unwrap();
        let manifest = manifest_for(&instrumented, &config);
        let expect = &manifest.functions["set_uid"];
        assert_eq!(expect.min_cre, 0);
        assert!(expect.entry_sensitive.is_empty());
    }

    #[test]
    fn gate_passes_on_compiler_output() {
        let module = demo_module();
        for config in [
            CompileConfig::none(),
            CompileConfig::ra_only(),
            CompileConfig::non_control(),
            CompileConfig::full(),
        ] {
            let compiled = crate::compile(&module, &config).unwrap();
            let instrumented = instrument::instrument(&module, &config).unwrap();
            check(&compiled, &instrumented, &config).unwrap();
        }
    }

    #[test]
    fn interprocedural_gate_passes_on_compiler_output() {
        let module = demo_module();
        for config in [
            CompileConfig::ra_only().interprocedural(),
            CompileConfig::full().interprocedural(),
            CompileConfig::full().optimized().interprocedural(),
        ] {
            let compiled = crate::compile(&module, &config).unwrap();
            let r = report_for_source(&compiled, &module, &config).unwrap();
            assert!(!r.has_errors(), "{}", r.render_human());
            let graph = r
                .graph
                .expect("interprocedural mode reports the call graph");
            assert!(graph.functions >= 1);
        }
    }

    #[test]
    fn key_globals_land_in_the_manifest() {
        let mut module = demo_module();
        module.add_key_global("keyblob", vec![0xAA; 16]);
        let config = CompileConfig::full();
        let instrumented = instrument::instrument(&module, &config).unwrap();
        let manifest = manifest_for(&instrumented, &config);
        assert_eq!(manifest.key_symbols, vec!["keyblob".to_owned()]);
        assert!(!manifest.data_symbols.contains(&"keyblob".to_owned()));
    }
}
