//! Exit-code contract of the `regvault-cli` binary.
//!
//! CI pipelines (and `scripts/check.sh`) rely on the process exit status:
//! findings, divergences and malformed inputs must all be nonzero, clean
//! runs zero. These tests shell out to the real binary so the full
//! main() → run() → subcommand path is covered.

use std::path::PathBuf;
use std::process::{Command, Output};

use regvault_cli::json::find_number;
use regvault_compiler::{compile, CompileConfig};
use regvault_verifier::mutate::{self, Mutation};
use regvault_verifier::ViolationKind;
use regvault_workloads::{spec::Spec, Workload};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_regvault-cli"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn scratch(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "regvault_cli_exit_codes_{}_{name}",
        std::process::id()
    ));
    std::fs::write(&path, contents).expect("write scratch file");
    path
}

const CLEAN_PROGRAM: &str = "main:\n  li a0, 1\n  ebreak\n";

/// A decrypted value spilled to the stack unencrypted — a verifier finding.
const SPILL_PROGRAM: &str = "main:
  addi sp, sp, -16
  crdak a0, a0, t1, [7:0]
  sd a0, 0(sp)
  ebreak
";

const CRYPTO_PROGRAM: &str = "main:
  li   t1, 0x9000
  li   a0, 0xbeef
  creak a0, a0[3:0], t1
  crdak a0, a0, t1, [3:0]
  ebreak
";

#[test]
fn verify_is_zero_on_clean_and_nonzero_on_findings() {
    let clean = scratch("clean.s", CLEAN_PROGRAM);
    let out = cli(&["verify", clean.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");

    let dirty = scratch("spill.s", SPILL_PROGRAM);
    let out = cli(&["verify", dirty.to_str().unwrap()]);
    assert!(!out.status.success(), "findings must exit nonzero: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("plain-spill"), "{stderr}");
}

#[test]
fn verify_rejects_malformed_assembly() {
    let bad = scratch("bad.s", "frobnicate the bits\n");
    let out = cli(&["verify", bad.to_str().unwrap()]);
    assert!(!out.status.success(), "{out:?}");
}

#[test]
fn record_then_replay_round_trips_and_corruption_fails() {
    let program = scratch("record.s", CRYPTO_PROGRAM);
    let bundle = std::env::temp_dir().join(format!(
        "regvault_cli_exit_codes_{}.bundle",
        std::process::id()
    ));
    let out = cli(&[
        "record",
        program.to_str().unwrap(),
        bundle.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");

    let out = cli(&["replay", bundle.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("replay OK"));

    // Flip one byte: the bundle checksum must reject it, nonzero.
    let mut bytes = std::fs::read(&bundle).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 1;
    std::fs::write(&bundle, &bytes).unwrap();
    let out = cli(&["replay", bundle.to_str().unwrap()]);
    assert!(!out.status.success(), "corrupt bundle must fail: {out:?}");
}

#[test]
fn replay_rejects_garbage_input() {
    let garbage = scratch("garbage.bundle", "this is not a bundle");
    let out = cli(&["replay", garbage.to_str().unwrap()]);
    assert!(!out.status.success(), "{out:?}");
}

#[test]
fn trace_emits_chrome_json_and_rejects_malformed_input() {
    let program = scratch("trace.s", CRYPTO_PROGRAM);
    let out = cli(&["trace", program.to_str().unwrap(), "--chrome"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("{\n  \"traceEvents\": ["), "{stdout}");
    assert!(stdout.contains("\"name\": \"qarma\""), "{stdout}");

    let bad = scratch("trace_bad.s", "not assembly at all\n");
    let out = cli(&["trace", bad.to_str().unwrap()]);
    assert!(!out.status.success(), "malformed input must fail: {out:?}");

    let out = cli(&["trace", "--workload", "no-such-workload"]);
    assert!(!out.status.success(), "unknown workload must fail: {out:?}");
}

#[test]
fn metrics_json_reports_clb_counters() {
    let program = scratch("metrics.s", CRYPTO_PROGRAM);
    let out = cli(&["metrics", program.to_str().unwrap(), "--json"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for key in ["clb_hits", "qarma_ops_ksel_a", "clb_hit_rate"] {
        assert!(find_number(&stdout, key).is_some(), "{key} in {stdout}");
    }
}

#[test]
fn profile_attributes_by_function() {
    let program = scratch("profile.s", CRYPTO_PROGRAM);
    let out = cli(&["profile", program.to_str().unwrap(), "--json"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"name\": \"main\""), "{stdout}");
    assert!(stdout.contains("\"crypto_ops\": 2,"), "{stdout}");
}

#[test]
fn unknown_commands_exit_nonzero_with_usage() {
    let out = cli(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn verify_workloads_corpus_gate_is_zero() {
    // The invocation CI runs: any finding of either severity fails it.
    let out = cli(&["verify", "--workloads", "--interprocedural"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("verified 68 images: 0 violation(s)"),
        "{stdout}"
    );
    assert!(stdout.contains("call graph:"), "{stdout}");
}

#[test]
fn verify_sarif_emits_a_document_and_keeps_the_exit_contract() {
    let clean = scratch("sarif_clean.s", CLEAN_PROGRAM);
    let out = cli(&["verify", clean.to_str().unwrap(), "--sarif"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"version\": \"2.1.0\""), "{stdout}");

    let dirty = scratch("sarif_spill.s", SPILL_PROGRAM);
    let out = cli(&["verify", dirty.to_str().unwrap(), "--sarif"]);
    assert!(!out.status.success(), "findings must exit nonzero: {out:?}");
    // Failure output goes to stderr; the SARIF document still carries the
    // finding so CI can upload it.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("plain-spill"), "{stderr}");
}

/// The exact gate in its failing direction: each whole-program mutation
/// seeded into a compiled FULL listing exits 1 and names its lint, warnings
/// (tweak reuse, raw key load) as much as the error (spill gadget), while
/// the unmutated listing exits 0.
#[test]
fn verify_fails_on_each_seeded_whole_program_mutation() {
    let matrix = [
        (Mutation::ReuseTweak, true, ViolationKind::TweakDiversity),
        (Mutation::LeakKeyToGpr, true, ViolationKind::RawKeyFlow),
        (
            Mutation::PlainSpillInCallee,
            false,
            ViolationKind::SpillGadget,
        ),
    ];
    for item in Spec::ALL {
        let compiled = compile(&item.module(), &CompileConfig::full()).expect("compiles");
        let asm = compiled.asm_text();
        let verify = |name: &str, listing: &str| {
            let file = scratch(&format!("{}_{name}.s", item.name()), listing);
            cli(&[
                "verify",
                file.to_str().unwrap(),
                "--interprocedural",
                "--key-symbol",
                mutate::KEY_SYMBOL,
            ])
        };
        let out = verify("clean", asm);
        assert!(out.status.success(), "{}: {out:?}", item.name());

        let sites = mutate::crypto_sites(asm);
        for (mutation, on_cre, kind) in matrix {
            let site = sites
                .iter()
                .find(|s| s.is_cre == on_cre)
                .expect("FULL listings have cre and crd sites");
            let mutated = mutate::apply(asm, site.line, mutation).expect("mutation applies");
            let out = verify(kind.id(), &mutated);
            assert_eq!(out.status.code(), Some(1), "{}: {mutation:?}", item.name());
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(kind.id()),
                "{}: {mutation:?}: {stderr}",
                item.name()
            );
        }
    }
}

#[test]
fn verify_rejects_contradictory_flag_combinations() {
    let out = cli(&["verify", "--workloads", "some.s"]);
    assert!(!out.status.success(), "{out:?}");
    let clean = scratch("flags_clean.s", CLEAN_PROGRAM);
    let out = cli(&["verify", clean.to_str().unwrap(), "--json", "--sarif"]);
    assert!(!out.status.success(), "{out:?}");
}

/// Every flag-taking subcommand rejects an unknown flag before doing any
/// work: nonzero exit, nothing on stdout, and the error names the command
/// and the flag, followed by the command's generated flag list.
#[test]
fn unknown_flags_are_rejected_before_any_work() {
    let program = scratch("bogus_flag.s", CRYPTO_PROGRAM);
    let file = program.to_str().unwrap();
    let bundle = std::env::temp_dir().join(format!(
        "regvault_cli_exit_codes_{}_bogus.bundle",
        std::process::id()
    ));
    let bundle_path = bundle.to_str().unwrap();
    let cases: [(&str, Vec<&str>); 9] = [
        ("serve", vec!["--bogus"]),
        ("fleet", vec!["--bogus"]),
        ("leakage", vec!["--bogus"]),
        ("verify", vec![file, "--bogus"]),
        ("record", vec![file, bundle_path, "--bogus"]),
        ("trace", vec![file, "--bogus"]),
        ("metrics", vec![file, "--bogus"]),
        ("profile", vec![file, "--bogus"]),
        ("divergence", vec![file, "--bogus"]),
    ];
    for (cmd, rest) in cases {
        let mut args = vec![cmd];
        args.extend(rest);
        let out = cli(&args);
        assert!(!out.status.success(), "{cmd}: {out:?}");
        assert!(out.stdout.is_empty(), "{cmd} did work: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with(&format!("{cmd}: unknown flag `--bogus`")),
            "{stderr}"
        );
        assert!(stderr.contains(" flags:\n    --"), "{stderr}");
    }
    assert!(!bundle.exists(), "record wrote a bundle despite a bad flag");
}

/// The serve usage lists every flag `serve` accepts, including the two the
/// hand-kept usage text once left out.
#[test]
fn serve_usage_lists_every_serve_flag() {
    let out = cli(&["serve", "--bogus"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let full = cli(&[]);
    let usage = String::from_utf8_lossy(&full.stderr);
    for flag in ["--no-micro-reboot", "--deadline-factor"] {
        assert!(stderr.contains(flag), "{flag} in {stderr}");
        assert!(usage.contains(flag), "{flag} in {usage}");
    }
}
