//! Binary-level protection verifier for RegVault.
//!
//! The RegVault security argument depends on the compiler never letting
//! sensitive plaintext touch memory unencrypted — but a bug in
//! instrumentation, register allocation, or codegen silently voids the
//! threat model. This crate independently re-derives the invariants from the
//! *final machine code*, the same artifact the hardware executes:
//!
//! 1. [`cfg`] reconstructs a control-flow graph per function from
//!    `regvault-isa` decoded instructions;
//! 2. [`taint`] runs a fixpoint abstract interpretation tracking, per
//!    register and per abstract stack slot, whether a value *may* hold
//!    sensitive plaintext (seeded from `crd[x]k` destinations and the
//!    compiler's manifest of sensitive entry registers);
//! 3. violations — plaintext spills, sensitive values live across calls,
//!    tweak/key discipline breaks, dropped crypto sites, malformed CIP
//!    chains — are reported as structured [`diag`] diagnostics with
//!    disassembly context.
//!
//! The [`mutate`] module provides the negative-test harness: surgically
//! break one protection site and assert the verifier flags exactly that
//! instruction.
//!
//! # Examples
//!
//! ```
//! use regvault_isa::asm::assemble;
//! use regvault_verifier::{verify, VerifyOptions};
//!
//! // An unprotected ra save: flagged as a plain spill.
//! let program = assemble(
//!     "main:
//!      addi sp, sp, -16
//!      sd ra, 0(sp)
//!      ld ra, 0(sp)
//!      addi sp, sp, 16
//!      ret",
//! )
//! .unwrap();
//! let mut manifest = regvault_verifier::ProtectionManifest::default();
//! manifest.functions.insert(
//!     "main".into(),
//!     regvault_verifier::FnExpect {
//!         entry_sensitive: vec![regvault_isa::Reg::Ra],
//!         ..Default::default()
//!     },
//! );
//! let report = verify(
//!     program.bytes(),
//!     program.symbols().iter(),
//!     &manifest,
//!     &VerifyOptions::default(),
//! );
//! assert!(!report.is_clean());
//! assert_eq!(report.violations[0].offset, 4); // the unwrapped `sd ra, 0(sp)`
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod cfg;
pub mod cip;
pub mod diag;
pub mod lints;
pub mod manifest;
pub mod mutate;
pub mod summary;
pub mod taint;

use std::collections::BTreeMap;

use regvault_isa::decode::decode;
use regvault_isa::Insn;

pub use diag::{FnStats, Report, Severity, Violation, ViolationKind};
pub use manifest::{FnExpect, ProtectionManifest};
pub use taint::TaintOptions;

/// Verifier configuration.
#[derive(Debug, Clone, Default)]
pub struct VerifyOptions {
    /// Dataflow options (strict mode etc.).
    pub taint: TaintOptions,
    /// Function symbols that are CIP save stubs: checked with the
    /// chain-structure rules of [`cip`] in addition to the dataflow.
    pub cip_stubs: Vec<String>,
    /// When `true`, a symbol region that fails to decode is skipped as data
    /// (hand-written images mixing code and data); when `false` it is an
    /// [`ViolationKind::Undecodable`] violation (compiler output must be
    /// pure code).
    pub undecodable_is_data: bool,
    /// Whole-program mode: recover the call graph, compute per-function
    /// taint summaries to a fixpoint, apply them at resolved call sites
    /// (replacing the conservative clobber model), and run the
    /// [`lints`] passes over the combined facts.
    pub interprocedural: bool,
}

/// Number of disassembly lines shown on each side of a violation.
const CONTEXT_RADIUS: u64 = 2;

/// Verifies `image` against the RegVault protection invariants.
///
/// `symbols` is the assembler symbol table (`name -> byte offset`);
/// function extents are derived from it, skipping `.L*` block labels and
/// the manifest's `data_symbols`/`key_symbols`. Returns a [`Report`] with
/// all violations and per-function statistics; the report is
/// [finalized](Report::finalize) (sorted, deduplicated, fingerprinted).
///
/// With [`VerifyOptions::interprocedural`] set, the per-function dataflow is
/// preceded by call-graph recovery and a summary fixpoint, resolved call
/// sites apply callee summaries instead of the conservative clobber model,
/// and the whole-program [`lints`] run over the combined facts.
pub fn verify<'a, I>(
    image: &[u8],
    symbols: I,
    manifest: &ProtectionManifest,
    options: &VerifyOptions,
) -> Report
where
    I: IntoIterator<Item = (&'a String, &'a u64)>,
{
    let symbols: Vec<(&String, &u64)> = symbols.into_iter().collect();
    let mut excluded: Vec<&str> = manifest.data_symbols.iter().map(String::as_str).collect();
    excluded.extend(manifest.key_symbols.iter().map(String::as_str));
    let regions = cfg::regions_from_symbols(symbols.iter().copied(), image.len() as u64, &excluded);

    // Key-storage extents, for the raw-key-flow dataflow (`Val::Key` seeds).
    let key_regions: Vec<(u64, u64)> = if options.interprocedural {
        cfg::regions_from_symbols(symbols.iter().copied(), image.len() as u64, &[])
            .into_iter()
            .filter(|r| manifest.key_symbols.iter().any(|k| k == &r.name))
            .map(|r| (r.start, r.end))
            .collect()
    } else {
        Vec::new()
    };

    let mut report = Report::default();

    // Phase 1: recover every function's CFG (shared by both modes).
    let mut funcs: Vec<(cfg::FuncRegion, cfg::Cfg, TaintOptions)> = Vec::new();
    for region in regions {
        match cfg::build(image, &region) {
            Ok(built) => {
                let mut taint_options = options.taint;
                if options.cip_stubs.iter().any(|s| s == &region.name) {
                    // CIP tweaks chain over the previous plaintext, not the
                    // storage address; the chain structure is checked
                    // separately below.
                    taint_options.tweak_discipline = false;
                }
                funcs.push((region, built, taint_options));
            }
            Err(failure) => {
                if options.undecodable_is_data {
                    report.skipped_data.push(region.name.clone());
                } else {
                    report.violations.push(Violation {
                        kind: ViolationKind::Undecodable,
                        function: region.name.clone(),
                        offset: failure.offset,
                        insn: format!(".word {:#010x}", failure.word),
                        detail: "word inside a function extent does not decode".into(),
                        context: Vec::new(),
                        fingerprint: String::new(),
                    });
                    report.stats.insert(region.name.clone(), FnStats::default());
                }
            }
        }
    }

    // Phase 2 (interprocedural only): call graph + summary fixpoint.
    let whole_program = options.interprocedural.then(|| {
        let graph = callgraph::build(&funcs, &key_regions);
        let summaries = summary::compute(&funcs, &graph.targets, &key_regions);
        (graph, summaries)
    });

    // Phase 3: per-function dataflow, with summaries applied when present.
    let mut facts: BTreeMap<String, Vec<taint::Event>> = BTreeMap::new();
    for (region, built, taint_options) in &funcs {
        let expect = manifest.expect_for(&region.name);
        let analysis = match &whole_program {
            Some((graph, summaries)) => {
                let env = taint::CallEnv {
                    targets: &graph.targets,
                    summaries,
                };
                taint::analyze_full(
                    built,
                    &expect.entry_sensitive,
                    *taint_options,
                    &key_regions,
                    Some(&env),
                )
            }
            None => taint::analyze_full(built, &expect.entry_sensitive, *taint_options, &[], None),
        };
        let mut raw = analysis.violations;
        if whole_program.is_some() {
            facts.insert(region.name.clone(), analysis.events);
        }

        // Crypto population check against the compiler's promise.
        let mut stats = FnStats::default();
        for block in &built.blocks {
            for (_, insn) in &block.insns {
                stats.instructions += 1;
                match insn {
                    Insn::Cre { .. } => stats.cre += 1,
                    Insn::Crd { .. } => stats.crd += 1,
                    _ => {}
                }
            }
        }
        if stats.cre < expect.min_cre {
            raw.push(taint::RawViolation {
                kind: ViolationKind::CryptoDropped,
                offset: region.start,
                detail: format!(
                    "manifest requires at least {} cre instruction(s), binary has {}",
                    expect.min_cre, stats.cre
                ),
            });
        }
        if stats.crd < expect.min_crd {
            raw.push(taint::RawViolation {
                kind: ViolationKind::CryptoDropped,
                offset: region.start,
                detail: format!(
                    "manifest requires at least {} crd instruction(s), binary has {}",
                    expect.min_crd, stats.crd
                ),
            });
        }

        // CIP structural discipline for declared save stubs.
        if options.cip_stubs.iter().any(|s| s == &region.name) {
            let linear: Vec<(u64, Insn)> = built
                .blocks
                .iter()
                .flat_map(|b| b.insns.iter().copied())
                .collect();
            raw.extend(cip::check_chain(&linear));
        }

        raw.sort();
        raw.dedup();
        for violation in raw {
            report
                .violations
                .push(attach_context(image, region, &violation));
        }
        report.stats.insert(region.name.clone(), stats);
    }

    // Phase 4 (interprocedural only): whole-program lints.
    if let Some((graph, summaries)) = &whole_program {
        let ctx = lints::LintContext {
            facts: &facts,
            summaries,
            graph,
        };
        let by_name: BTreeMap<&str, &cfg::FuncRegion> = funcs
            .iter()
            .map(|(region, _, _)| (region.name.as_str(), region))
            .collect();
        for lint in lints::all() {
            for finding in lint.run(&ctx) {
                if let Some(region) = by_name.get(finding.function.as_str()) {
                    report
                        .violations
                        .push(attach_context(image, region, &finding.violation));
                }
            }
        }
        report.graph = Some(graph.stats);
    }

    report.finalize();
    report
}

/// Builds the full diagnostic for a raw dataflow violation: disassembles the
/// offending instruction and a context window around it.
fn attach_context(image: &[u8], region: &cfg::FuncRegion, raw: &taint::RawViolation) -> Violation {
    let render_at = |offset: u64| -> Option<String> {
        let at = offset as usize;
        if offset < region.start || offset + 4 > region.end || at + 4 > image.len() {
            return None;
        }
        let word = u32::from_le_bytes(image[at..at + 4].try_into().expect("4-byte slice"));
        let text =
            decode(word).map_or_else(|_| format!(".word {word:#010x}"), |insn| insn.to_string());
        Some(format!("{offset:#06x}: {word:08x}  {text}"))
    };
    let insn = render_at(raw.offset)
        .and_then(|line| line.split("  ").nth(1).map(str::to_owned))
        .unwrap_or_else(|| "<out of range>".into());
    let lo = raw
        .offset
        .saturating_sub(4 * CONTEXT_RADIUS)
        .max(region.start);
    let hi = (raw.offset + 4 * CONTEXT_RADIUS).min(region.end.saturating_sub(4));
    let mut context = Vec::new();
    let mut at = lo;
    while at <= hi {
        if let Some(line) = render_at(at) {
            context.push(line);
        }
        at += 4;
    }
    Violation {
        kind: raw.kind,
        function: region.name.clone(),
        offset: raw.offset,
        insn,
        detail: raw.detail.clone(),
        context,
        fingerprint: String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regvault_isa::asm::assemble;
    use regvault_isa::Reg;

    fn ra_manifest() -> ProtectionManifest {
        let mut manifest = ProtectionManifest::default();
        manifest.functions.insert(
            "main".into(),
            FnExpect {
                entry_sensitive: vec![Reg::Ra],
                min_cre: 1,
                min_crd: 1,
            },
        );
        manifest
    }

    const PROTECTED: &str = "main:
        addi sp, sp, -16
        creak ra, ra[7:0], sp
        sd ra, 0(sp)
        addi a0, zero, 7
        ld ra, 0(sp)
        crdak ra, ra, sp, [7:0]
        addi sp, sp, 16
        ret";

    #[test]
    fn protected_program_verifies_clean() {
        let program = assemble(PROTECTED).unwrap();
        let report = verify(
            program.bytes(),
            program.symbols().iter(),
            &ra_manifest(),
            &VerifyOptions::default(),
        );
        assert!(report.is_clean(), "{}", report.render_human());
        assert_eq!(report.stats["main"].cre, 1);
        assert_eq!(report.stats["main"].crd, 1);
    }

    #[test]
    fn dropped_crypto_fails_the_population_check() {
        let program = assemble(
            "main:
             addi sp, sp, -16
             addi sp, sp, 16
             ret",
        )
        .unwrap();
        let report = verify(
            program.bytes(),
            program.symbols().iter(),
            &ra_manifest(),
            &VerifyOptions::default(),
        );
        assert!(report
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::CryptoDropped));
    }

    #[test]
    fn violation_carries_disassembly_context() {
        let program = assemble(
            "main:
             addi sp, sp, -16
             sd ra, 0(sp)
             ret",
        )
        .unwrap();
        let mut manifest = ra_manifest();
        manifest.functions.get_mut("main").unwrap().min_cre = 0;
        manifest.functions.get_mut("main").unwrap().min_crd = 0;
        let report = verify(
            program.bytes(),
            program.symbols().iter(),
            &manifest,
            &VerifyOptions::default(),
        );
        assert_eq!(report.violations.len(), 1);
        let v = &report.violations[0];
        assert_eq!(v.kind, ViolationKind::PlainSpill);
        assert_eq!(v.offset, 4);
        assert_eq!(v.insn, "sd ra, 0(sp)");
        assert!(!v.context.is_empty());
        assert!(report.render_human().contains("0x0004"));
    }

    #[test]
    fn data_symbols_are_excluded() {
        let program = assemble(
            "value: .dword 0xFFFFFFFFFFFFFFFF
             main:
             ret",
        )
        .unwrap();
        let mut manifest = ProtectionManifest::default();
        manifest.data_symbols.push("value".into());
        let report = verify(
            program.bytes(),
            program.symbols().iter(),
            &manifest,
            &VerifyOptions::default(),
        );
        assert!(report.is_clean(), "{}", report.render_human());
        assert!(!report.stats.contains_key("value"));
    }

    #[test]
    fn undecodable_region_policy() {
        let program = assemble(
            "blob: .dword 0xFFFFFFFFFFFFFFFF
             main:
             ret",
        )
        .unwrap();
        let manifest = ProtectionManifest::default();
        let strict = verify(
            program.bytes(),
            program.symbols().iter(),
            &manifest,
            &VerifyOptions::default(),
        );
        assert!(strict
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::Undecodable));
        let lenient = verify(
            program.bytes(),
            program.symbols().iter(),
            &manifest,
            &VerifyOptions {
                undecodable_is_data: true,
                ..VerifyOptions::default()
            },
        );
        assert!(lenient.is_clean());
        assert_eq!(lenient.skipped_data, vec!["blob".to_owned()]);
    }

    #[test]
    fn cip_stub_checking_is_wired_through() {
        let good = cip::save_stub_asm("cip_save", regvault_isa::KeyReg::C);
        let program = assemble(&good).unwrap();
        let options = VerifyOptions {
            cip_stubs: vec!["cip_save".into()],
            ..VerifyOptions::default()
        };
        let report = verify(
            program.bytes(),
            program.symbols().iter(),
            &ProtectionManifest::default(),
            &options,
        );
        assert!(report.is_clean(), "{}", report.render_human());

        // Break the chain: swap one tweak.
        let sites = mutate::crypto_sites(&good);
        let mutated = mutate::apply(&good, sites[5].line, mutate::Mutation::SwapTweak).unwrap();
        let program = assemble(&mutated).unwrap();
        let report = verify(
            program.bytes(),
            program.symbols().iter(),
            &ProtectionManifest::default(),
            &options,
        );
        assert!(report
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::MalformedCipChain));
    }
}
