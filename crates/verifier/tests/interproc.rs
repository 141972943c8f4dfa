//! Whole-program verification integration tests: cases the per-function
//! pass provably cannot see, the seeded-mutation ↔ lint matrix, and the
//! CIP chain checker across basic-block boundaries.

use regvault_isa::asm::assemble;
use regvault_isa::{KeyReg, Reg};
use regvault_verifier::mutate::{self, Mutation};
use regvault_verifier::{
    cip, verify, FnExpect, ProtectionManifest, Report, Severity, VerifyOptions, ViolationKind,
};

/// The three whole-program lint kinds, in registration order.
const LINT_KINDS: [ViolationKind; 3] = [
    ViolationKind::TweakDiversity,
    ViolationKind::RawKeyFlow,
    ViolationKind::SpillGadget,
];

fn interproc() -> VerifyOptions {
    VerifyOptions {
        interprocedural: true,
        ..VerifyOptions::default()
    }
}

fn run(src: &str, manifest: &ProtectionManifest, options: &VerifyOptions) -> Report {
    let program = assemble(src).unwrap();
    verify(program.bytes(), program.symbols().iter(), manifest, options)
}

/// A caller that spills `a0` right after a call into a callee that decrypts
/// and returns plaintext. Each function is locally clean — the leak only
/// exists once the callee's summary flows back to the call site.
const CALLEE_RETURN_LEAK: &str = "caller:
    addi sp, sp, -16
    call get_secret
    sd a0, 0(sp)
    addi sp, sp, 16
    ret
    get_secret:
    ld a0, 0(a1)
    crdak a0, a0, a1, [7:0]
    ret";

#[test]
fn callee_return_leak_needs_the_whole_program_pass() {
    let manifest = ProtectionManifest::default();

    // The per-function pass cannot know what `get_secret` returns: the
    // conservative clobber model makes `a0` opaque, so the spill is clean.
    let intra = run(CALLEE_RETURN_LEAK, &manifest, &VerifyOptions::default());
    assert!(intra.is_clean(), "{}", intra.render_human());

    // The interprocedural pass applies `get_secret`'s returns_plain summary
    // at the call site and catches the spill in the *caller*.
    let whole = run(CALLEE_RETURN_LEAK, &manifest, &interproc());
    assert!(whole.has_errors(), "{}", whole.render_human());
    let spill = whole
        .violations
        .iter()
        .find(|v| v.kind == ViolationKind::PlainSpill)
        .expect("the a0 spill must be flagged");
    assert_eq!(spill.function, "caller");
    assert_eq!(spill.insn, "sd a0, 0(sp)");

    let graph = whole.graph.expect("interprocedural mode reports the graph");
    assert_eq!(graph.functions, 2);
    assert!(graph.direct_calls >= 1, "{graph:?}");
}

/// A minimal protected function with one `cre` and one `crd` site — the
/// substrate the whole-program mutations are seeded into.
const PROTECTED: &str = "main:
    addi sp, sp, -16
    creak ra, ra[7:0], sp
    sd ra, 0(sp)
    addi a0, zero, 7
    ld ra, 0(sp)
    crdak ra, ra, sp, [7:0]
    addi sp, sp, 16
    ret";

fn protected_manifest() -> ProtectionManifest {
    let mut manifest = ProtectionManifest::default();
    manifest.functions.insert(
        "main".into(),
        FnExpect {
            entry_sensitive: vec![Reg::Ra],
            min_cre: 1,
            min_crd: 1,
        },
    );
    // Key storage only exists after the LeakKeyToGpr mutation appends it;
    // declaring an absent symbol is harmless for the other runs.
    manifest.key_symbols.push(mutate::KEY_SYMBOL.into());
    manifest
}

/// Applies `mutation` at its applicable crypto site and verifies the result
/// in whole-program mode.
fn mutated_report(mutation: Mutation, on_cre: bool) -> Report {
    let sites = mutate::crypto_sites(PROTECTED);
    let site = sites
        .iter()
        .find(|s| s.is_cre == on_cre)
        .expect("the substrate has both site flavors");
    let mutated = mutate::apply(PROTECTED, site.line, mutation).expect("mutation applies");
    run(&mutated, &protected_manifest(), &interproc())
}

#[test]
fn each_seeded_mutation_is_caught_by_exactly_its_lint() {
    // The substrate itself is clean in whole-program mode.
    let base = run(PROTECTED, &protected_manifest(), &interproc());
    assert!(base.is_clean(), "{}", base.render_human());

    let matrix = [
        (Mutation::ReuseTweak, true, ViolationKind::TweakDiversity),
        (Mutation::LeakKeyToGpr, true, ViolationKind::RawKeyFlow),
        (
            Mutation::PlainSpillInCallee,
            false,
            ViolationKind::SpillGadget,
        ),
    ];
    for (mutation, on_cre, expected) in matrix {
        let report = mutated_report(mutation, on_cre);
        for kind in LINT_KINDS {
            let found = report.violations.iter().any(|v| v.kind == kind);
            assert_eq!(
                found,
                kind == expected,
                "{mutation:?}: lint {} should fire iff it is {} — {}",
                kind.id(),
                expected.id(),
                report.render_human()
            );
        }
        // Severity labels: the diversity/key-flow lints report warnings,
        // the composed spill gadget an error. The compiler's in-compile gate
        // fails on errors only; `regvault-cli verify` fails on either.
        assert_eq!(
            report.has_errors(),
            expected.severity() == Severity::Error,
            "{mutation:?}: has_errors must follow the lint's severity"
        );
    }
}

#[test]
fn cip_chain_is_checked_across_basic_block_boundaries() {
    // Split the reference CIP save stub mid-chain with a (never-taken)
    // branch: the chain now spans two basic blocks, and the checker must
    // still see it whole through the linearized block order.
    let stub = cip::save_stub_asm("cip_save", KeyReg::C);
    let mut lines: Vec<&str> = stub.lines().collect();
    // Line 0 is the label; odd lines are `cre`, even lines `sd` — insert
    // between two (cre, sd) pairs.
    assert!(
        lines[20].starts_with("sd "),
        "stub layout changed: {}",
        lines[20]
    );
    lines.insert(21, ".Lcip_split:");
    lines.insert(21, "bne zero, zero, .Lcip_split");
    let split = lines.join("\n");

    let program = assemble(&split).unwrap();
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

    // The same split stub with one swapped tweak must still be flagged —
    // the block boundary does not hide chain breaks.
    let sites = mutate::crypto_sites(&split);
    let broken = mutate::apply(&split, sites[14].line, Mutation::SwapTweak).unwrap();
    let program = assemble(&broken).unwrap();
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
