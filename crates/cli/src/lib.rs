//! Library backing the `regvault-cli` binary.
//!
//! Each subcommand is a function from parsed arguments to an output string,
//! so the whole surface is unit-testable without spawning processes. The
//! commands are listed by [`usage`]; their flags are parsed by [`args`] from
//! per-command tables, and the flag lists in [`usage`] are generated from
//! the same tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod fleet;
pub mod json;
pub mod leakage;
mod observe;
pub mod serve;

pub use fleet::{cmd_fleet, parse_fleet_args, FleetArgs};
pub use observe::{cmd_metrics, cmd_profile, cmd_trace, ProfileTracer, TraceFormat, TraceSubject};
pub use serve::{cmd_serve, parse_serve_args, ServeArgs};

use std::fmt::Write as _;

use regvault_attacks::{run_all, Outcome};
use regvault_compiler::{compile, verify as compiler_verify, CompileConfig};
use regvault_isa::{asm, disasm, KeyReg, Reg};
use regvault_kernel::ProtectionConfig;
use regvault_sim::{
    hwcost, run_lockstep, FaultKind, FaultPlan, Machine, MachineConfig, ReproBundle,
};
use regvault_verifier::callgraph::CallGraphStats;
use regvault_verifier::{
    verify as verifier_verify, ProtectionManifest, Report, Severity, VerifyOptions, ViolationKind,
};
use regvault_workloads::{lmbench::Lmbench, spec::Spec, unixbench::UnixBench, Workload};

use args::{num, set, Flag};
use json::Value;
use observe::{cmd_observe, Observe};

/// Error string type used by the CLI (messages go straight to stderr).
pub type CliError = String;

/// Assembles `source`, returning an `offset: word` listing.
///
/// # Errors
///
/// Returns the assembler diagnostic on malformed input.
pub fn cmd_asm(source: &str) -> Result<String, CliError> {
    let program = asm::assemble(source).map_err(|e| e.to_string())?;
    let mut out = String::new();
    for (i, word) in program.words().iter().enumerate() {
        let _ = writeln!(out, "{:#06x}: {word:08x}", i * 4);
    }
    for (symbol, offset) in program.symbols() {
        let _ = writeln!(out, "symbol {symbol} = {offset:#x}");
    }
    Ok(out)
}

/// Assembles then disassembles `source` — shows what the hardware decodes.
///
/// # Errors
///
/// Returns the assembler diagnostic on malformed input.
pub fn cmd_disasm(source: &str) -> Result<String, CliError> {
    let program = asm::assemble(source).map_err(|e| e.to_string())?;
    let mut out = String::new();
    for line in disasm::disassemble(program.bytes()) {
        let _ = writeln!(out, "{}", line.render_annotated());
    }
    let (crypto, total) = disasm::crypto_density(program.bytes());
    let _ = writeln!(out, "; {crypto}/{total} instructions are cre/crd");
    Ok(out)
}

/// Runs a bare-metal program (kernel privilege, keys installed) and dumps
/// the final register file and statistics.
///
/// # Errors
///
/// Returns assembler or simulator diagnostics.
pub fn cmd_run(source: &str, max_steps: u64) -> Result<String, CliError> {
    let mut machine = boot_bare_machine(source, false)?;
    machine
        .run_until_break(max_steps)
        .map_err(|e| e.to_string())?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "halted after {} instructions, {} cycles",
        machine.stats().instret,
        machine.stats().cycles
    );
    for chunk in Reg::ALL.chunks(4) {
        for reg in chunk {
            let _ = write!(
                out,
                "{:>4} = {:#018x}  ",
                reg.name(),
                machine.hart().reg(*reg)
            );
        }
        let _ = writeln!(out);
    }
    let clb = machine.engine().clb().stats();
    let _ = writeln!(
        out,
        "crypto: {} cre / {} crd, CLB {:.1}% hits",
        machine.stats().encrypts,
        machine.stats().decrypts,
        clb.hit_ratio() * 100.0
    );
    Ok(out)
}

/// Boots the standard bare-metal machine every execution subcommand uses:
/// keys `a`–`g` installed, program at `0x8000_0000`, a mapped stack region,
/// kernel privilege. `reference` selects the reference datapath.
pub(crate) fn boot_bare_machine(source: &str, reference: bool) -> Result<Machine, CliError> {
    let program = asm::assemble(source).map_err(|e| e.to_string())?;
    boot_bare_image(program.bytes(), 0, reference)
}

/// [`boot_bare_machine`] for an assembled image whose entry is `entry`
/// bytes past its load address.
fn boot_bare_image(image: &[u8], entry: u64, reference: bool) -> Result<Machine, CliError> {
    let mut machine = Machine::new(MachineConfig {
        reference_datapath: reference,
        ..MachineConfig::default()
    });
    for (i, key) in [
        KeyReg::A,
        KeyReg::B,
        KeyReg::C,
        KeyReg::D,
        KeyReg::E,
        KeyReg::F,
        KeyReg::G,
    ]
    .iter()
    .enumerate()
    {
        machine
            .write_key_register(*key, 0x1000 + i as u64, 0x2000 + i as u64)
            .map_err(|e| e.to_string())?;
    }
    machine.load_program(0x8000_0000, image);
    machine.memory_mut().map_region(0x7000_0000, 0x10000);
    machine.hart_mut().set_reg(Reg::Sp, 0x7000_F000);
    machine.hart_mut().set_pc(0x8000_0000 + entry);
    Ok(machine)
}

/// Parses one `--flip INSTRET:ADDR:BIT` specification (addr may be hex).
///
/// # Errors
///
/// Describes the expected shape on malformed input.
pub fn parse_flip(spec: &str) -> Result<(u64, FaultKind), CliError> {
    let parts: Vec<&str> = spec.split(':').collect();
    let err = || format!("invalid flip `{spec}` (expected INSTRET:ADDR:BIT)");
    let [instret, addr, bit] = parts[..] else {
        return Err(err());
    };
    let parse_u64 = |s: &str| -> Result<u64, CliError> {
        if let Some(hex) = s.strip_prefix("0x") {
            u64::from_str_radix(hex, 16).map_err(|_| err())
        } else {
            s.parse().map_err(|_| err())
        }
    };
    Ok((
        parse_u64(instret)?,
        FaultKind::MemBitFlip {
            addr: parse_u64(addr)?,
            bit: (parse_u64(bit)? % 64) as u8,
        },
    ))
}

/// Runs `source` bare-metal while recording every nondeterministic input,
/// returning `(report, serialized repro bundle)`. `faults` are injected via
/// a scheduled [`FaultPlan`]; the bundle embeds the pre-run snapshot, the
/// event log, and the final architectural digest the replay must reach.
///
/// # Errors
///
/// Returns assembler diagnostics; simulator errors become part of the
/// recorded outcome rather than failing the recording.
pub fn cmd_record(
    source: &str,
    max_steps: u64,
    faults: &[(u64, FaultKind)],
) -> Result<(String, Vec<u8>), CliError> {
    let mut machine = boot_bare_machine(source, false)?;
    let start = machine.snapshot();
    machine.start_recording();
    if !faults.is_empty() {
        let mut plan = FaultPlan::new();
        for &(instret, kind) in faults {
            plan = plan.at(instret, kind);
        }
        machine.set_fault_plan(plan);
    }
    let outcome = match machine.run_until_break(max_steps) {
        Ok(()) => "break".to_owned(),
        Err(e) => e.to_string(),
    };
    let log = machine
        .stop_recording()
        .ok_or("the recording was lost before the run ended")?;
    let digest = machine.arch_digest();
    let bundle = ReproBundle {
        meta: vec![
            ("harness".to_owned(), "cli-bare-metal".to_owned()),
            ("steps".to_owned(), machine.stats().instret.to_string()),
        ],
        snapshot: Some(start),
        log,
        expected_digest: digest,
        steps: max_steps,
        outcome: outcome.clone(),
    };
    let report = format!(
        "recorded {} fault event(s) over {} instructions\n\
         outcome: {outcome}\n\
         final digest: {digest:#018x}\n",
        bundle.log.len(),
        machine.stats().instret,
    );
    Ok((report, bundle.to_bytes()))
}

/// Replays a repro bundle and checks it reproduces bit-for-bit.
///
/// # Errors
///
/// Rejects malformed bundles (bad magic/version/checksum), bundles without
/// an embedded snapshot, and — the interesting case — replays whose final
/// architectural digest or outcome differs from the recording.
pub fn cmd_replay(bundle_bytes: &[u8]) -> Result<String, CliError> {
    let bundle = ReproBundle::from_bytes(bundle_bytes).map_err(|e| e.to_string())?;
    let snapshot = bundle.snapshot.as_ref().ok_or_else(|| {
        "bundle carries no snapshot; replay it with its original harness \
         (fault_campaign --replay)"
            .to_owned()
    })?;
    let mut machine = Machine::fork_from(snapshot).map_err(|e| e.to_string())?;
    if !bundle.log.is_empty() {
        machine.set_fault_plan(bundle.log.to_plan());
    }
    let outcome = match machine.run_until_break(bundle.steps) {
        Ok(()) => "break".to_owned(),
        Err(e) => e.to_string(),
    };
    let digest = machine.arch_digest();
    if digest != bundle.expected_digest || outcome != bundle.outcome {
        return Err(format!(
            "REPLAY MISMATCH\n\
             outcome: recorded `{}`, replayed `{outcome}`\n\
             digest : recorded {:#018x}, replayed {digest:#018x}\n",
            bundle.outcome, bundle.expected_digest
        ));
    }
    Ok(format!(
        "replay OK: {} event(s), outcome `{outcome}`, digest {digest:#018x} (bit-for-bit)\n",
        bundle.log.len()
    ))
}

/// Co-runs the optimized and reference datapaths over `source` in
/// lockstep: the optimized machine runs through the superblock tier, so the
/// SWAR datapath is checked inside superblocks too, and the OK line counts
/// its superblock entries.
///
/// # Errors
///
/// Returns assembler diagnostics, or — the interesting case — a report
/// naming the exact first divergent instruction and the state component
/// that differed.
pub fn cmd_divergence(source: &str, max_steps: u64, interval: u64) -> Result<String, CliError> {
    let mut fast = boot_bare_machine(source, false)?;
    let mut reference = boot_bare_machine(source, true)?;
    let outcome = run_lockstep(&mut fast, &mut reference, max_steps, interval);
    match outcome.divergence {
        None => Ok(format!(
            "lockstep OK: {} instructions, {} superblock entries, datapaths \
             architecturally identical (digest {:#018x})\n",
            outcome.steps,
            fast.superblock_stats().hits,
            fast.arch_digest()
        )),
        Some(divergence) => Err(format!(
            "DIVERGENCE at instruction {}: {}\n",
            divergence.step, divergence.detail
        )),
    }
}

/// Co-runs the superblock translation tier against the single-step
/// interpreter over every raw UnixBench/LMbench guest and every SPEC
/// program, in lockstep. The SPEC programs are compiled uninstrumented, as
/// they run as user programs; they bring what the assembled guests lack:
/// globals, and blocks that end in `j` stubs the tier follows.
///
/// There is no kernel underneath a bare lockstep pair, so `ecall` stops —
/// which would truncate the syscall-heavy guests after a handful of
/// instructions — are serviced by a stub that returns 0 identically on
/// both machines and resumes, keeping the loops hot until the step budget.
/// Real terminal events (`ebreak`, exceptions) end the sweep for that
/// guest.
///
/// # Errors
///
/// Reports the first diverging workload with the exact instruction (or the
/// superblock's entry pc and architectural step range) and the state
/// component that differed.
pub fn cmd_divergence_tiers(max_steps: u64) -> Result<String, CliError> {
    const ECALL_WORD: u32 = 0x0000_0073;
    let mut corpus: Vec<&dyn Workload> = Vec::new();
    corpus.extend(UnixBench::ALL.iter().map(|item| item as &dyn Workload));
    corpus.extend(Lmbench::ALL.iter().map(|item| item as &dyn Workload));
    corpus.extend(Spec::ALL.iter().map(|item| item as &dyn Workload));

    let mut out = String::new();
    let mut total_steps = 0u64;
    let mut total_hits = 0u64;
    let count = corpus.len();
    for workload in corpus {
        let name = workload.name();
        let (image, entry) = workload.program();
        let mut tiered = boot_bare_image(&image, entry, false)?;
        let mut interp = boot_bare_image(&image, entry, false)?;
        let mut steps = 0u64;
        let mut syscalls = 0u64;
        while steps < max_steps {
            let outcome = run_lockstep(&mut tiered, &mut interp, max_steps - steps, 256);
            steps += outcome.steps;
            if let Some(divergence) = outcome.divergence {
                return Err(format!(
                    "{name}: TIER DIVERGENCE at instruction {}: {}\n",
                    steps - outcome.steps + divergence.step,
                    divergence.detail
                ));
            }
            // An `ecall` leaves pc pointing at the instruction on both
            // machines; anything else that stopped us early is terminal.
            let pc = tiered.hart().pc();
            if steps >= max_steps || tiered.memory().read_u32(pc) != Ok(ECALL_WORD) {
                break;
            }
            syscalls += 1;
            for machine in [&mut tiered, &mut interp] {
                machine.hart_mut().set_reg(Reg::A0, 0);
                machine.advance_pc();
            }
        }
        let stats = tiered.superblock_stats();
        let _ = writeln!(
            out,
            "{name:<28} {:>9} insns  {:>8} superblock entries  {:>9} tier insns  \
             {:>5} side exits  {syscalls} syscalls stubbed",
            steps, stats.hits, stats.insns, stats.side_exits
        );
        total_steps += steps;
        total_hits += stats.hits;
    }
    let _ = writeln!(
        out,
        "tier lockstep OK: {count} workloads, {total_steps} instructions, \
         {total_hits} superblock entries, tier architecturally identical to \
         the interpreter"
    );
    Ok(out)
}

/// Parses a configuration label (`base|ra|fp|non-control|full`).
///
/// # Errors
///
/// Lists the accepted labels on a bad value.
pub fn parse_config(label: &str) -> Result<ProtectionConfig, CliError> {
    Ok(match label {
        "base" | "off" | "original" => ProtectionConfig::off(),
        "ra" => ProtectionConfig::ra_only(),
        "fp" => ProtectionConfig::fp_only(),
        "non-control" | "nc" => ProtectionConfig::non_control(),
        "full" => ProtectionConfig::full(),
        other => {
            return Err(format!(
                "unknown config `{other}` (expected base|ra|fp|non-control|full)"
            ))
        }
    })
}

/// Runs the Table 4 suite against one configuration.
///
/// # Errors
///
/// Propagates configuration-label parse errors.
pub fn cmd_pentest(label: &str) -> Result<String, CliError> {
    let config = parse_config(label)?;
    let mut out = String::new();
    let _ = writeln!(out, "penetration tests against {}:", config.label());
    for result in run_all(config) {
        let verdict = if result.outcome.defeated() {
            "defeated"
        } else {
            "SUCCEEDED"
        };
        let _ = writeln!(
            out,
            "  {:<38} {:<10} {}",
            result.attack.name(),
            verdict,
            result.detail
        );
    }
    Ok(out)
}

/// Regenerates Table 4: every attack against the original kernel and the
/// RegVault-protected one, the paper comparison, and the protected
/// column's evidence trail.
fn cmd_pentest_table() -> String {
    fn mark(outcome: Outcome) -> &'static str {
        match outcome {
            Outcome::Succeeded => "x (succeeded)",
            Outcome::DefeatedDetected => "ok (detected)",
            Outcome::DefeatedGarbled => "ok (garbled)",
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 4: Penetration test results (x = attack succeeds, ok = defeated)\n"
    );
    let original = run_all(ProtectionConfig::off());
    let regvault = run_all(ProtectionConfig::full());
    let _ = writeln!(
        out,
        "{:<38} {:<16} {:<16}",
        "Attack", "Original", "RegVault"
    );
    for (orig, prot) in original.iter().zip(&regvault) {
        let _ = writeln!(
            out,
            "{:<38} {:<16} {:<16}",
            orig.attack.name(),
            mark(orig.outcome),
            mark(prot.outcome)
        );
    }
    let defended = regvault.iter().filter(|r| r.outcome.defeated()).count();
    let _ = writeln!(out, "\nRegVault stops {defended}/8 attacks (paper: 8/8).");
    let _ = writeln!(out, "\nEvidence trail (RegVault column):");
    for result in &regvault {
        let _ = writeln!(out, "  {:<38} {}", result.attack.name(), result.detail);
    }
    out
}

/// Regenerates Table 3: relative hardware resource cost over the SoC for
/// the CLB-0 and CLB-8 configurations next to the paper's figures, then
/// the CLB size sweep.
fn cmd_hwcost_table() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 3: RegVault relative hardware resource cost over the entire SoC\n"
    );
    let _ = writeln!(
        out,
        "{:<6} {:<6} {:>16} {:>8} {:>8}   {:>16} {:>8} {:>8}",
        "CLB", "", "crypto-engine", "CLB", "FPU", "(paper: engine)", "(CLB)", "(FPU)"
    );
    let paper = [
        // (entries, metric, engine, clb, fpu)
        (0usize, "#LUT", 4.88, f64::NAN, 25.28),
        (0, "#FF", 4.79, f64::NAN, 12.40),
        (8, "#LUT", 4.42, 4.30, 24.39),
        (8, "#FF", 4.55, 4.84, 11.78),
    ];
    let pct_or_na = |pct: f64| {
        if pct.is_nan() {
            "N/A".to_owned()
        } else {
            format!("{pct:.2}%")
        }
    };
    for (entries, metric, p_engine, p_clb, p_fpu) in paper {
        let r = hwcost::soc_report(entries);
        let (engine, clb, fpu) = match metric {
            "#LUT" => (r.crypto_engine_lut_pct(), r.clb_lut_pct(), r.fpu_lut_pct()),
            _ => (r.crypto_engine_ff_pct(), r.clb_ff_pct(), r.fpu_ff_pct()),
        };
        let clb = if entries == 0 { f64::NAN } else { clb };
        let _ = writeln!(
            out,
            "{:<6} {:<6} {:>15.2}% {:>8} {:>7.2}%   {:>15.2}% {:>8} {:>7.2}%",
            entries,
            metric,
            engine,
            pct_or_na(clb),
            fpu,
            p_engine,
            pct_or_na(p_clb),
            p_fpu
        );
    }

    let _ = writeln!(out, "\nCLB size sweep (ablation):");
    let _ = writeln!(
        out,
        "{:<8} {:>10} {:>10} {:>10} {:>10}",
        "entries", "CLB LUTs", "CLB %LUT", "CLB FFs", "CLB %FF"
    );
    for report in hwcost::clb_sweep(&[0, 2, 4, 8, 16, 32, 64]) {
        let _ = writeln!(
            out,
            "{:<8} {:>10} {:>9.2}% {:>10} {:>9.2}%",
            report.clb_entries,
            report.clb_luts,
            report.clb_lut_pct(),
            report.clb_ffs,
            report.clb_ff_pct()
        );
    }
    out
}

/// Prints the hardware area model for a CLB size.
///
/// # Errors
///
/// Rejects non-numeric entry counts.
pub fn cmd_hwcost(entries: &str) -> Result<String, CliError> {
    let entries: usize = num(entries)?;
    let report = hwcost::soc_report(entries);
    let mut out = String::new();
    let _ = writeln!(out, "SoC with a {entries}-entry CLB:");
    let _ = writeln!(
        out,
        "  crypto-engine: {} LUTs ({:.2}%), {} FFs ({:.2}%)",
        report.crypto_engine_luts,
        report.crypto_engine_lut_pct(),
        report.crypto_engine_ffs,
        report.crypto_engine_ff_pct()
    );
    let _ = writeln!(
        out,
        "  CLB          : {} LUTs ({:.2}%), {} FFs ({:.2}%)",
        report.clb_luts,
        report.clb_lut_pct(),
        report.clb_ffs,
        report.clb_ff_pct()
    );
    let _ = writeln!(
        out,
        "  FPU (compare): {} LUTs ({:.2}%), {} FFs ({:.2}%)",
        report.fpu_luts,
        report.fpu_lut_pct(),
        report.fpu_ffs,
        report.fpu_ff_pct()
    );
    Ok(out)
}

/// What `verify` checks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum VerifyInput {
    /// The whole benchmark corpus (`--workloads`).
    #[default]
    Workloads,
    /// One assembly file.
    File(String),
}

/// Parsed arguments of the `verify` subcommand.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyArgs {
    /// What to verify.
    pub input: VerifyInput,
    /// Emit the machine-readable JSON report.
    pub json: bool,
    /// Emit a SARIF 2.1.0-style document instead of human/JSON output.
    pub sarif: bool,
    /// Whole-program mode: call-graph recovery, interprocedural taint
    /// summaries, and the tweak-diversity / raw-key-flow / spill-gadget
    /// lints.
    pub interprocedural: bool,
    /// Key-storage data symbols (single-file mode): loads from them are
    /// tracked by the raw-key-flow lint.
    pub key_symbols: Vec<String>,
}

/// `verify` flags before `--workloads` is resolved against the input file.
#[derive(Default)]
struct VerifyFlags {
    workloads: bool,
    args: VerifyArgs,
}

#[rustfmt::skip]
const VERIFY_FLAGS: &[Flag<VerifyFlags>] = &[
    Flag::switch("--workloads", "verify every benchmark image, not a file",
        |f, _| set(&mut f.workloads, true)),
    Flag::switch("--json", "machine-readable JSON report", |f, _| set(&mut f.args.json, true)),
    Flag::switch("--sarif", "SARIF 2.1.0 document", |f, _| set(&mut f.args.sarif, true)),
    Flag::switch("--interprocedural", "call-graph summaries + whole-program lints",
        |f, _| set(&mut f.args.interprocedural, true)),
    Flag::value("--key-symbol", "NAME", "key-storage data symbol (repeatable)", |f, v| {
        f.args.key_symbols.push(v.to_owned());
        Ok(())
    }),
];

/// Parses `verify` subcommand arguments.
///
/// # Errors
///
/// Rejects unknown flags, missing flag values, and contradictory
/// combinations (no input, both a file and `--workloads`, `--json` with
/// `--sarif`).
pub fn parse_verify_args(args: &[String]) -> Result<VerifyArgs, CliError> {
    let mut flags = VerifyFlags::default();
    let files = args::parse("verify", VERIFY_FLAGS, args, &mut flags, 1)?;
    let mut parsed = flags.args;
    parsed.input = match (flags.workloads, files.first()) {
        (true, None) => VerifyInput::Workloads,
        (false, Some(file)) => VerifyInput::File(file.clone()),
        _ => return Err(usage()),
    };
    if parsed.json && parsed.sarif {
        return Err("choose one of --json / --sarif".to_owned());
    }
    Ok(parsed)
}

/// A verifier report as JSON: `{"clean", "functions", "instructions",
/// "crypto_ops", "errors", "warnings", "violations": [{"kind", "severity",
/// "function", "offset", "insn", "detail", "fingerprint"}], "skipped_data",
/// "callgraph"?}`.
#[must_use]
pub fn report_json(report: &Report) -> Value {
    let violations = report.violations.iter().map(|v| {
        Value::obj([
            ("kind", v.kind.id().into()),
            ("severity", v.severity().id().into()),
            ("function", v.function.as_str().into()),
            ("offset", v.offset.into()),
            ("insn", v.insn.as_str().into()),
            ("detail", v.detail.as_str().into()),
            ("fingerprint", v.fingerprint.as_str().into()),
        ])
    });
    let mut pairs = vec![
        ("clean", report.is_clean().into()),
        ("functions", report.stats.len().into()),
        ("instructions", report.instructions().into()),
        ("crypto_ops", report.crypto_ops().into()),
        ("errors", report.count_by_severity(Severity::Error).into()),
        (
            "warnings",
            report.count_by_severity(Severity::Warning).into(),
        ),
        ("violations", Value::arr(violations)),
        (
            "skipped_data",
            Value::arr(report.skipped_data.iter().map(|name| name.as_str().into())),
        ),
    ];
    if let Some(g) = report.graph {
        pairs.push((
            "callgraph",
            Value::obj([
                ("functions", g.functions.into()),
                ("edges", g.edges.into()),
                ("direct_calls", g.direct_calls.into()),
                ("resolved_indirect", g.resolved_indirect.into()),
                ("unresolved_indirect", g.unresolved_indirect.into()),
                ("tail_calls", g.tail_calls.into()),
            ]),
        ));
    }
    Value::obj(pairs)
}

/// Labeled verifier reports as one SARIF 2.1.0-style document.
///
/// `runs` pairs an artifact label (e.g. `dhry2@full` or a file name) with
/// its report; all results land in a single SARIF run. Fingerprints are
/// emitted as the `regvault/v1` partial fingerprint, so a SARIF consumer can
/// track one finding across rebuilds.
#[must_use]
pub fn sarif_json(runs: &[(String, &Report)]) -> Value {
    let rules = ViolationKind::ALL.iter().map(|kind| {
        Value::obj([
            ("id", kind.id().into()),
            (
                "defaultConfiguration",
                Value::obj([("level", kind.severity().id().into())]),
            ),
        ])
    });
    let results = runs.iter().flat_map(|(label, report)| {
        report.violations.iter().map(move |v| {
            let location = Value::obj([
                (
                    "physicalLocation",
                    Value::obj([
                        (
                            "artifactLocation",
                            Value::obj([("uri", label.as_str().into())]),
                        ),
                        ("region", Value::obj([("byteOffset", v.offset.into())])),
                    ]),
                ),
                (
                    "logicalLocations",
                    Value::arr([Value::obj([("name", v.function.as_str().into())])]),
                ),
            ]);
            Value::obj([
                ("ruleId", v.kind.id().into()),
                ("level", v.severity().id().into()),
                (
                    "message",
                    Value::obj([("text", format!("{} — {}", v.insn, v.detail).into())]),
                ),
                ("locations", Value::arr([location])),
                (
                    "partialFingerprints",
                    Value::obj([("regvault/v1", v.fingerprint.as_str().into())]),
                ),
            ])
        })
    });
    let driver = Value::obj([
        ("name", "regvault-verifier".into()),
        ("version", env!("CARGO_PKG_VERSION").into()),
        ("rules", Value::arr(rules)),
    ]);
    Value::obj([
        (
            "$schema",
            "https://json.schemastore.org/sarif-2.1.0.json".into(),
        ),
        ("version", "2.1.0".into()),
        (
            "runs",
            Value::arr([Value::obj([
                ("tool", Value::obj([("driver", driver)])),
                ("results", Value::arr(results)),
            ])]),
        ),
    ])
}

/// Aggregated whole-program analysis summary: call-graph coverage plus a
/// per-lint findings table with severities and the analysis wall time.
fn analysis_summary(reports: &[&Report], elapsed: std::time::Duration) -> String {
    let mut graph = CallGraphStats::default();
    for r in reports {
        if let Some(g) = r.graph {
            graph.functions += g.functions;
            graph.edges += g.edges;
            graph.direct_calls += g.direct_calls;
            graph.resolved_indirect += g.resolved_indirect;
            graph.unresolved_indirect += g.unresolved_indirect;
            graph.tail_calls += g.tail_calls;
        }
    }
    let count = |kind: ViolationKind| -> usize {
        reports
            .iter()
            .flat_map(|r| &r.violations)
            .filter(|v| v.kind == kind)
            .count()
    };
    let errors: usize = reports
        .iter()
        .map(|r| r.count_by_severity(Severity::Error))
        .sum();
    let warnings: usize = reports
        .iter()
        .map(|r| r.count_by_severity(Severity::Warning))
        .sum();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "call graph: {} function(s), {} edge(s); {} direct, {} resolved indirect, \
         {} unresolved indirect, {} tail call(s)",
        graph.functions,
        graph.edges,
        graph.direct_calls,
        graph.resolved_indirect,
        graph.unresolved_indirect,
        graph.tail_calls
    );
    let _ = writeln!(
        out,
        "lint findings ({errors} error(s), {warnings} warning(s), analyzed in {:.1} ms):",
        elapsed.as_secs_f64() * 1e3
    );
    for kind in [
        ViolationKind::TweakDiversity,
        ViolationKind::RawKeyFlow,
        ViolationKind::SpillGadget,
    ] {
        let _ = writeln!(
            out,
            "  {:<26} {:<8} {}",
            kind.id(),
            kind.severity().id(),
            count(kind)
        );
    }
    out
}

/// Verifies a hand-written assembly program against the RegVault dataflow
/// invariants. Regions that fail to decode are skipped as data (hand-written
/// images may interleave `.dword` pools with code).
///
/// Returns `Ok(report)` when the image has no finding and `Err(report)`
/// otherwise, so callers can exit non-zero. Warnings fail like errors.
///
/// # Errors
///
/// Returns the assembler diagnostic on malformed input, or the rendered
/// verification report when the program violates an invariant.
pub fn cmd_verify_source(source: &str, args: &VerifyArgs) -> Result<String, CliError> {
    let program = asm::assemble(source).map_err(|e| e.to_string())?;
    let manifest = ProtectionManifest {
        key_symbols: args.key_symbols.clone(),
        ..ProtectionManifest::default()
    };
    let options = VerifyOptions {
        undecodable_is_data: true,
        interprocedural: args.interprocedural,
        ..VerifyOptions::default()
    };
    let started = std::time::Instant::now();
    let report = verifier_verify(
        program.bytes(),
        program.symbols().iter(),
        &manifest,
        &options,
    );
    let elapsed = started.elapsed();
    let runs = vec![("<input>".to_owned(), &report)];
    let mut rendered = if args.sarif {
        sarif_json(&runs).render()
    } else if args.json {
        report_json(&report).render()
    } else {
        let mut text = report.render_human();
        if args.interprocedural {
            text.push_str(&analysis_summary(&[&report], elapsed));
        }
        text
    };
    if !rendered.ends_with('\n') {
        rendered.push('\n');
    }
    if report.is_clean() {
        Ok(rendered)
    } else {
        Err(rendered)
    }
}

/// Verifies the whole benchmark corpus: every SPEC-shaped module compiled
/// under each protection configuration (checked against the compiler's own
/// manifest), plus the raw UnixBench/LMbench guest programs (dataflow
/// invariants only).
///
/// Returns `Err` with the summary when any image has a finding of either
/// severity; the per-image `OK`/`FAIL` column uses the same predicate.
///
/// # Errors
///
/// Propagates compile errors and reports verification failures.
pub fn cmd_verify_workloads(args: &VerifyArgs) -> Result<String, CliError> {
    let configs: [(&str, CompileConfig); 5] = [
        ("base", CompileConfig::none()),
        ("ra", CompileConfig::ra_only()),
        ("fp", CompileConfig::fp_only()),
        ("non-control", CompileConfig::non_control()),
        ("full", CompileConfig::full()),
    ];

    let started = std::time::Instant::now();
    // (name, config label, report)
    let mut rows: Vec<(String, &str, Report)> = Vec::new();

    for item in Spec::ALL {
        let module = item.module();
        for (label, config) in &configs {
            let mut config = *config;
            // We produce (and render) the report ourselves instead of
            // letting the in-compile gate abort on the first failure.
            config.verify_output = false;
            config.verify_interprocedural = args.interprocedural;
            let compiled = compile(&module, &config).map_err(|e| e.to_string())?;
            let report = compiler_verify::report_for_source(&compiled, &module, &config)
                .map_err(|e| e.to_string())?;
            rows.push((item.name().to_owned(), label, report));
        }
    }

    let raw_options = VerifyOptions {
        undecodable_is_data: true,
        interprocedural: args.interprocedural,
        ..VerifyOptions::default()
    };
    let mut raw_guest = |name: &str, source: String| -> Result<(), CliError> {
        let program = asm::assemble(&source).map_err(|e| format!("{name}: {e}"))?;
        let report = verifier_verify(
            program.bytes(),
            program.symbols().iter(),
            &ProtectionManifest::default(),
            &raw_options,
        );
        rows.push((name.to_owned(), "raw", report));
        Ok(())
    };
    for item in UnixBench::ALL {
        raw_guest(Workload::name(&item), item.source())?;
    }
    for item in Lmbench::ALL {
        raw_guest(Workload::name(&item), item.source())?;
    }
    let elapsed = started.elapsed();

    let runs: Vec<(String, &Report)> = rows
        .iter()
        .map(|(name, label, report)| (format!("{name}@{label}"), report))
        .collect();

    let total_violations: usize = rows.iter().map(|(_, _, r)| r.violations.len()).sum();
    let out = if args.sarif {
        sarif_json(&runs).render()
    } else if args.json {
        let images = rows.iter().map(|(name, label, report)| {
            Value::obj([
                ("name", name.as_str().into()),
                ("config", (*label).into()),
                ("report", report_json(report)),
            ])
        });
        Value::obj([
            ("clean", (total_violations == 0).into()),
            ("images", Value::arr(images)),
        ])
        .render()
    } else {
        let mut out = String::new();
        for (name, label, report) in &rows {
            let verdict = if report.is_clean() { "OK" } else { "FAIL" };
            let _ = writeln!(
                out,
                "  {name:<12} {label:<12} {verdict:<5} {} insns, {} crypto ops, {} violation(s)",
                report.instructions(),
                report.crypto_ops(),
                report.violations.len()
            );
            for v in &report.violations {
                let _ = writeln!(out, "    {v}");
            }
        }
        if args.interprocedural {
            let reports: Vec<&Report> = rows.iter().map(|(_, _, r)| r).collect();
            out.push_str(&analysis_summary(&reports, elapsed));
        }
        let _ = writeln!(
            out,
            "verified {} images: {total_violations} violation(s)",
            rows.len()
        );
        out
    };
    if total_violations == 0 {
        Ok(out)
    } else {
        Err(out)
    }
}

/// Usage text: one line per command, then each command's generated flag
/// list.
#[must_use]
pub fn usage() -> String {
    let mut out = "regvault-cli — the RegVault reproduction toolbox

USAGE:
    regvault-cli asm     <file.s>          assemble, print words + symbols
    regvault-cli disasm  <file.s>          assemble + disassemble round trip
    regvault-cli run     <file.s> [steps]  execute on the simulated machine
    regvault-cli pentest [config]          Table 4: both columns, or one config
    regvault-cli hwcost  [entries]         Table 3: paper rows + CLB sweep, or
                                           the area model for one CLB size
    regvault-cli verify  <file.s> | --workloads [flags]
                                           check RegVault invariants over a program
                                           or every benchmark image
    regvault-cli record  <file.s> <out.bundle> [flags]
                                           run + record a repro bundle
    regvault-cli replay  <bundle>          re-run a bundle, check bit-for-bit
    regvault-cli divergence <file.s> [steps] [interval]
                                           lockstep optimized vs reference datapath
    regvault-cli divergence --tiers [steps]
                                           lockstep superblock tier vs interpreter
                                           over every UnixBench/LMbench guest
    regvault-cli trace   <file.s> | --workload <name> [flags]
                                           structured event trace (--chrome loads
                                           in Perfetto / chrome://tracing)
    regvault-cli metrics <file.s> | --workload <name> [flags]
                                           counters + histograms of a run
    regvault-cli profile <file.s> | --workload <name> [flags]
                                           per-function steps + crypto profile
    regvault-cli serve   [flags]           supervised multi-tenant server under
                                           live fault injection
    regvault-cli fleet   [flags]           snapshot-forked machine fleet with
                                           micro-reboot recovery under a chaos
                                           kill schedule
    regvault-cli leakage [flags]           ciphertext side-channel campaign:
                                           dictionary collisions over the
                                           workload corpus with the epoch-rekey
                                           mitigation off vs on
"
    .to_owned();
    for (cmd, flags) in [
        ("verify", args::usage(VERIFY_FLAGS)),
        ("record", args::usage(RECORD_FLAGS)),
        ("divergence", args::usage(DIVERGENCE_FLAGS)),
        ("trace/metrics/profile", args::usage(observe::FLAGS)),
        ("serve", args::usage(serve::FLAGS)),
        ("fleet", args::usage(fleet::FLAGS)),
        ("leakage", args::usage(leakage::FLAGS)),
    ] {
        let _ = write!(out, "\n{cmd} flags:\n{flags}");
    }
    out
}

/// Reads an assembly source file with a friendly diagnostic.
///
/// # Errors
///
/// Describes the path on I/O failure.
pub fn read_source(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

/// Parsed `record` flags.
struct RecordArgs {
    steps: u64,
    faults: Vec<(u64, FaultKind)>,
}

#[rustfmt::skip]
const RECORD_FLAGS: &[Flag<RecordArgs>] = &[
    Flag::value("--steps", "N", "instruction budget", |a, v| set(&mut a.steps, num(v)?)),
    Flag::value("--flip", "I:ADDR:BIT", "flip a memory bit at instret I (repeatable)", |a, v| {
        a.faults.push(parse_flip(v)?);
        Ok(())
    }),
];

/// `record <file.s> <out.bundle> [--steps N] [--flip I:ADDR:BIT]...`
fn dispatch_record(args: &[String]) -> Result<String, CliError> {
    let mut parsed = RecordArgs {
        steps: 10_000_000,
        faults: Vec::new(),
    };
    let paths = args::parse("record", RECORD_FLAGS, args, &mut parsed, 2)?;
    let [file, out_path] = &paths[..] else {
        return Err(usage());
    };
    let (report, bytes) = cmd_record(&read_source(file)?, parsed.steps, &parsed.faults)?;
    std::fs::write(out_path, bytes).map_err(|e| format!("cannot write `{out_path}`: {e}"))?;
    Ok(format!("{report}bundle written to {out_path}\n"))
}

#[rustfmt::skip]
const DIVERGENCE_FLAGS: &[Flag<bool>] =
    &[Flag::switch("--tiers", "superblock tier vs interpreter, every guest", |t, _| set(t, true))];

/// `divergence <file.s> [steps] [interval]` or `divergence --tiers [steps]`.
fn dispatch_divergence(args: &[String]) -> Result<String, CliError> {
    let mut tiers = false;
    let positionals = args::parse("divergence", DIVERGENCE_FLAGS, args, &mut tiers, 3)?;
    match (tiers, &positionals[..]) {
        (true, []) => cmd_divergence_tiers(500_000),
        (true, [steps]) => cmd_divergence_tiers(num(steps)?),
        (false, [file]) => cmd_divergence(&read_source(file)?, 1_000_000, 256),
        (false, [file, steps]) => cmd_divergence(&read_source(file)?, num(steps)?, 256),
        (false, [file, steps, interval]) => {
            cmd_divergence(&read_source(file)?, num(steps)?, num(interval)?)
        }
        _ => Err(usage()),
    }
}

/// Full argument dispatch for the `regvault-cli` binary: `Ok` text goes to
/// stdout (exit 0), `Err` text to stderr (exit 1).
///
/// # Errors
///
/// Every subcommand's failure mode, plus the usage text for unknown
/// commands or malformed argument lists.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(usage());
    };
    match (cmd.as_str(), rest) {
        ("asm", [file]) => cmd_asm(&read_source(file)?),
        ("disasm", [file]) => cmd_disasm(&read_source(file)?),
        ("run", [file]) => cmd_run(&read_source(file)?, 10_000_000),
        ("run", [file, steps]) => cmd_run(&read_source(file)?, num(steps)?),
        ("pentest", []) => Ok(cmd_pentest_table()),
        ("pentest", [config]) => cmd_pentest(config),
        ("hwcost", []) => Ok(cmd_hwcost_table()),
        ("hwcost", [entries]) => cmd_hwcost(entries),
        ("verify", rest) => {
            let parsed = parse_verify_args(rest)?;
            match &parsed.input {
                VerifyInput::Workloads => cmd_verify_workloads(&parsed),
                VerifyInput::File(file) => cmd_verify_source(&read_source(file)?, &parsed),
            }
        }
        ("record", rest) => dispatch_record(rest),
        ("replay", [bundle]) => {
            let bytes =
                std::fs::read(bundle).map_err(|e| format!("cannot read `{bundle}`: {e}"))?;
            cmd_replay(&bytes)
        }
        ("divergence", rest) => dispatch_divergence(rest),
        ("trace", rest) => cmd_observe(Observe::Trace, rest),
        ("metrics", rest) => cmd_observe(Observe::Metrics, rest),
        ("profile", rest) => cmd_observe(Observe::Profile, rest),
        ("serve", rest) => cmd_serve(rest),
        ("fleet", rest) => cmd_fleet(rest),
        ("leakage", rest) => leakage::cmd_leakage(rest),
        _ => Err(usage()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asm_lists_words_and_symbols() {
        let out = cmd_asm("start:\n  li a0, 1\n  ebreak").unwrap();
        assert!(out.contains("symbol start = 0x0"));
        assert!(out.lines().count() >= 3);
    }

    #[test]
    fn disasm_round_trips() {
        let out = cmd_disasm("creak a0, a0[7:0], t1\nebreak").unwrap();
        assert!(out.contains("creak a0, a0[7:0], t1"));
        assert!(out.contains("1/2 instructions are cre/crd"));
    }

    #[test]
    fn run_reports_registers() {
        let out = cmd_run("li a0, 42\nebreak", 1000).unwrap();
        assert!(out.contains("a0 = 0x000000000000002a"));
    }

    #[test]
    fn pentest_full_defeats_everything() {
        let out = cmd_pentest("full").unwrap();
        assert!(!out.contains("SUCCEEDED"));
        assert_eq!(out.matches("defeated").count(), 8);
    }

    #[test]
    fn pentest_base_loses_everything() {
        let out = cmd_pentest("base").unwrap();
        assert_eq!(out.matches("SUCCEEDED").count(), 8);
    }

    #[test]
    fn bare_pentest_and_hwcost_print_the_paper_tables() {
        let table4 = run(&["pentest".to_owned()]).unwrap();
        assert!(table4.starts_with("Table 4:"), "{table4}");
        assert!(table4.contains("RegVault stops 8/8 attacks"), "{table4}");
        let table3 = run(&["hwcost".to_owned()]).unwrap();
        assert!(table3.starts_with("Table 3:"), "{table3}");
        assert!(table3.contains("CLB size sweep"), "{table3}");
    }

    #[test]
    fn bad_inputs_are_reported() {
        assert!(cmd_asm("frobnicate").is_err());
        assert!(parse_config("yolo").is_err());
        assert!(cmd_hwcost("many").is_err());
    }

    #[test]
    fn hwcost_renders_percentages() {
        let out = cmd_hwcost("8").unwrap();
        assert!(out.contains("crypto-engine"));
        assert!(out.contains("FPU"));
    }

    #[test]
    fn verify_accepts_a_clean_program() {
        let out = cmd_verify_source("main:\n  li a0, 1\n  ebreak", &VerifyArgs::default()).unwrap();
        assert!(out.starts_with("OK"), "{out}");
    }

    #[test]
    fn verify_flags_an_unwrapped_secret_spill() {
        // A decrypted value stored to the stack unencrypted.
        let report = cmd_verify_source(
            "main:
              addi sp, sp, -16
              crdak a0, a0, t1, [7:0]
              sd a0, 0(sp)
              ebreak",
            &VerifyArgs::default(),
        )
        .unwrap_err();
        assert!(report.contains("plain-spill"), "{report}");
        assert!(report.contains("sd a0"), "{report}");
    }

    #[test]
    fn verify_emits_json() {
        let args = VerifyArgs {
            json: true,
            ..VerifyArgs::default()
        };
        let out = cmd_verify_source("main:\n  ebreak", &args).unwrap();
        assert!(out.contains("\"clean\": true"), "{out}");
        assert_eq!(json::find_number(&out, "errors"), Some(0.0), "{out}");
    }

    fn spill_report() -> Report {
        let mut report = Report::default();
        report.violations.push(regvault_verifier::Violation {
            kind: ViolationKind::PlainSpill,
            function: "main".into(),
            offset: 0x40,
            insn: "sd t0, 0(t6)".into(),
            detail: "sensitive plaintext in t0 stored to \"stack\"".into(),
            context: vec![],
            fingerprint: String::new(),
        });
        report.finalize();
        report
    }

    #[test]
    fn report_json_carries_each_violation() {
        let out = report_json(&spill_report()).render();
        assert!(out.contains("\"kind\": \"plain-spill\""), "{out}");
        assert!(out.contains("\"severity\": \"error\""), "{out}");
        assert!(out.contains("stored to \\\"stack\\\""), "{out}");
        assert_eq!(json::find_number(&out, "offset"), Some(64.0), "{out}");
        assert_eq!(json::find_number(&out, "errors"), Some(1.0), "{out}");
        assert!(!out.contains("\"callgraph\""), "{out}");
    }

    #[test]
    fn sarif_document_shape() {
        let report = spill_report();
        let out = sarif_json(&[("img@full".to_owned(), &report)]).render();
        assert!(out.contains("\"version\": \"2.1.0\""), "{out}");
        assert!(out.contains("\"ruleId\": \"plain-spill\""), "{out}");
        assert!(out.contains("\"uri\": \"img@full\""), "{out}");
        assert!(out.contains("\"regvault/v1\": \""), "{out}");
        assert!(out.contains("\"unprotected-spill-gadget\""), "{out}");
        assert_eq!(json::find_number(&out, "byteOffset"), Some(64.0), "{out}");
    }

    #[test]
    fn verify_args_parse_and_reject_contradictions() {
        let to_vec =
            |args: &[&str]| -> Vec<String> { args.iter().map(|s| (*s).to_owned()).collect() };
        let parsed =
            parse_verify_args(&to_vec(&["--workloads", "--interprocedural", "--sarif"])).unwrap();
        assert_eq!(parsed.input, VerifyInput::Workloads);
        assert!(parsed.interprocedural && parsed.sarif);
        let parsed = parse_verify_args(&to_vec(&["prog.s", "--key-symbol", "keyblob"])).unwrap();
        assert_eq!(parsed.input, VerifyInput::File("prog.s".to_owned()));
        assert_eq!(parsed.key_symbols, vec!["keyblob".to_owned()]);
        assert!(parse_verify_args(&to_vec(&[])).is_err());
        assert!(parse_verify_args(&to_vec(&["a.s", "--workloads"])).is_err());
        assert!(parse_verify_args(&to_vec(&["a.s", "--json", "--sarif"])).is_err());
        assert!(parse_verify_args(&to_vec(&["a.s", "--frobnicate"])).is_err());
        let err = parse_verify_args(&to_vec(&["--workloads", "--baseline", "b.txt"])).unwrap_err();
        assert!(
            err.starts_with("verify: unknown flag `--baseline`"),
            "{err}"
        );
    }

    #[test]
    fn verify_interprocedural_reports_graph_and_lint_table() {
        // Warning-only program: a (key, tweak) pair reused across two
        // encryptions of different values, never stored. A warning fails
        // the run like an error does.
        let args = VerifyArgs {
            interprocedural: true,
            ..VerifyArgs::default()
        };
        let out = cmd_verify_source(
            "main:
              li t1, 0x9000
              creak t3, a0[7:0], t1
              creak t4, a1[7:0], t1
              call helper
              ebreak
             helper:
              ret",
            &args,
        )
        .unwrap_err();
        assert!(out.contains("call graph:"), "{out}");
        assert!(
            out.contains("tweak-diversity            warning  1"),
            "{out}"
        );
        assert!(out.contains("raw-key-flow"), "{out}");
        assert!(out.contains("unprotected-spill-gadget"), "{out}");
    }

    #[test]
    fn verify_sarif_renders_a_document() {
        let args = VerifyArgs {
            sarif: true,
            interprocedural: true,
            ..VerifyArgs::default()
        };
        let out = cmd_verify_source("main:\n  ebreak", &args).unwrap();
        assert!(out.contains("\"version\": \"2.1.0\""), "{out}");
        assert!(out.contains("regvault-verifier"), "{out}");
    }

    /// A crypto round-trip program for record/replay/divergence tests.
    const CRYPTO_PROGRAM: &str = "li   t1, 0x9000
         li   s0, 0x9000
         li   a0, 0xbeef
         creak a0, a0[3:0], t1
         sd   a0, 0(s0)
         ld   a1, 0(s0)
         crdak a1, a1, t1, [3:0]
         ebreak";

    #[test]
    fn record_then_replay_is_bit_for_bit() {
        let flip = parse_flip("5:0x9000:3").unwrap();
        let (report, bytes) = cmd_record(CRYPTO_PROGRAM, 10_000, &[flip]).unwrap();
        assert!(report.contains("recorded 1 fault event(s)"), "{report}");
        let replay = cmd_replay(&bytes).unwrap();
        assert!(replay.contains("replay OK"), "{replay}");
        assert!(replay.contains("bit-for-bit"), "{replay}");
    }

    #[test]
    fn replay_rejects_corruption_and_garbage() {
        let (_, mut bytes) = cmd_record(CRYPTO_PROGRAM, 10_000, &[]).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        let err = cmd_replay(&bytes).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
        assert!(cmd_replay(b"not a bundle").is_err());
    }

    #[test]
    fn flip_parser_accepts_hex_and_rejects_noise() {
        let (instret, kind) = parse_flip("100:0x9000:63").unwrap();
        assert_eq!(instret, 100);
        assert_eq!(
            kind,
            regvault_sim::FaultKind::MemBitFlip {
                addr: 0x9000,
                bit: 63
            }
        );
        assert!(parse_flip("100:0x9000").is_err());
        assert!(parse_flip("a:b:c").is_err());
    }

    #[test]
    fn divergence_clean_program_agrees() {
        let out = cmd_divergence(CRYPTO_PROGRAM, 10_000, 64).unwrap();
        assert!(out.contains("lockstep OK"), "{out}");
    }

    #[test]
    fn divergence_tiers_corpus_agrees() {
        // A tight budget keeps the 28-guest sweep fast in debug CI runs;
        // the compute loops still run hot enough to enter superblocks.
        let out = cmd_divergence_tiers(20_000).unwrap();
        assert!(out.contains("tier lockstep OK"), "{out}");
        assert!(out.contains("28 workloads"), "{out}");
    }

    #[test]
    fn verify_workloads_corpus_is_clean() {
        let out = cmd_verify_workloads(&VerifyArgs {
            input: VerifyInput::Workloads,
            ..VerifyArgs::default()
        })
        .unwrap();
        assert!(!out.contains("FAIL"), "{out}");
        // 10 SPEC programs x 5 configs + 8 UnixBench + 10 LMbench guests.
        assert!(out.contains("verified 68 images: 0 violation(s)"), "{out}");
    }
}
