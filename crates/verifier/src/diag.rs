//! Structured verifier diagnostics.
//!
//! Every invariant violation carries the function it was found in, the byte
//! offset of the offending instruction inside the image, its disassembly, a
//! human-oriented detail string, and a small disassembly context window, so a
//! report is actionable without re-running the disassembler by hand.
//!
//! Diagnostics are deterministic: [`Report::finalize`] sorts, deduplicates
//! per `(kind, fingerprint)`, and assigns each violation a stable
//! fingerprint — a hash over `(kind, function, instruction, detail,
//! occurrence index)` that deliberately excludes byte offsets, so unrelated
//! code motion does not change them. The CLI's JSON `fingerprint` key and
//! SARIF `partialFingerprints` carry them.

use std::collections::BTreeMap;
use std::fmt;

use crate::callgraph::CallGraphStats;

/// The RegVault invariant a violation breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ViolationKind {
    /// Sensitive plaintext stored to a stack slot without a wrapping `cre`.
    PlainSpill,
    /// Sensitive plaintext stored to non-stack memory (strict mode only).
    PlainStore,
    /// Sensitive plaintext live in a callee-saved register across a call.
    SensitiveAcrossCall,
    /// Ciphertext stored to (or decrypted with) an address other than its
    /// encryption tweak.
    TweakMismatch,
    /// `crd` uses a different key register than the `cre` that produced the
    /// ciphertext.
    KeyMismatch,
    /// Fewer `cre`/`crd` instructions in the binary than the compiler's
    /// protection manifest requires.
    CryptoDropped,
    /// A chain-encrypted interrupt frame save that breaks the CIP discipline
    /// (wrong tweak chaining, non-contiguous slots, missing trailing zero).
    MalformedCipChain,
    /// A word inside a function extent that does not decode.
    Undecodable,
    /// A `(key, tweak)` pair that can repeat across distinct plaintexts —
    /// the ciphertext-dictionary precondition (CipherGuard).
    TweakDiversity,
    /// Raw key material reaching a general-purpose register or memory
    /// unencrypted (KeyVisor invariant).
    RawKeyFlow,
    /// Sensitive plaintext in a callee-saved register live across a call
    /// into a function that saves that register unencrypted.
    SpillGadget,
}

/// How serious a finding is: errors break the protection invariants
/// outright, warnings flag side-channel risk or policy debt. A reported
/// label (it sets SARIF `level`): `regvault-cli verify` fails on a finding
/// of either severity, the compiler's in-compile gate on errors only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Side-channel risk / policy debt; fails `regvault-cli verify`.
    Warning,
    /// A broken protection invariant; fails the compiler gate.
    Error,
}

impl Severity {
    /// Stable lowercase identifier (matches SARIF `level` values).
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

impl ViolationKind {
    /// Every kind, in report order.
    pub const ALL: [ViolationKind; 11] = [
        ViolationKind::PlainSpill,
        ViolationKind::PlainStore,
        ViolationKind::SensitiveAcrossCall,
        ViolationKind::TweakMismatch,
        ViolationKind::KeyMismatch,
        ViolationKind::CryptoDropped,
        ViolationKind::MalformedCipChain,
        ViolationKind::Undecodable,
        ViolationKind::TweakDiversity,
        ViolationKind::RawKeyFlow,
        ViolationKind::SpillGadget,
    ];

    /// Stable lowercase identifier used in JSON output.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            ViolationKind::PlainSpill => "plain-spill",
            ViolationKind::PlainStore => "plain-store",
            ViolationKind::SensitiveAcrossCall => "sensitive-across-call",
            ViolationKind::TweakMismatch => "tweak-mismatch",
            ViolationKind::KeyMismatch => "key-mismatch",
            ViolationKind::CryptoDropped => "crypto-dropped",
            ViolationKind::MalformedCipChain => "malformed-cip-chain",
            ViolationKind::Undecodable => "undecodable",
            ViolationKind::TweakDiversity => "tweak-diversity",
            ViolationKind::RawKeyFlow => "raw-key-flow",
            ViolationKind::SpillGadget => "unprotected-spill-gadget",
        }
    }

    /// The severity class of this kind.
    #[must_use]
    pub fn severity(self) -> Severity {
        match self {
            ViolationKind::TweakDiversity | ViolationKind::RawKeyFlow => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One invariant violation, anchored to an instruction in the image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant was broken.
    pub kind: ViolationKind,
    /// The function the instruction belongs to.
    pub function: String,
    /// Byte offset of the offending instruction within the image.
    pub offset: u64,
    /// Disassembly of the offending instruction.
    pub insn: String,
    /// Human-oriented explanation.
    pub detail: String,
    /// Disassembly context window around the offending instruction.
    pub context: Vec<String>,
    /// Stable fingerprint (filled by [`Report::finalize`]): a hash of
    /// `(kind, function, insn, detail, occurrence)` — offsets excluded so
    /// code motion does not change it.
    pub fingerprint: String,
}

impl Violation {
    /// The severity of this violation (derived from its kind).
    #[must_use]
    pub fn severity(&self) -> Severity {
        self.kind.severity()
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} at {:#06x} in `{}`: {}",
            self.kind, self.insn, self.offset, self.function, self.detail
        )
    }
}

/// 64-bit FNV-1a over the fingerprint inputs, rendered as 16 hex digits.
fn fingerprint_of(
    kind: ViolationKind,
    function: &str,
    insn: &str,
    detail: &str,
    occurrence: u64,
) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash ^= 0xff; // field separator
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    eat(kind.id().as_bytes());
    eat(function.as_bytes());
    eat(insn.as_bytes());
    eat(detail.as_bytes());
    eat(&occurrence.to_le_bytes());
    format!("{hash:016x}")
}

/// Per-function statistics gathered while verifying.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FnStats {
    /// Instructions decoded inside the function extent.
    pub instructions: usize,
    /// `cre` instructions found.
    pub cre: usize,
    /// `crd` instructions found.
    pub crd: usize,
}

/// The result of verifying one image.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All violations, ordered by (function, offset, kind).
    pub violations: Vec<Violation>,
    /// Per-function statistics, in symbol order.
    pub stats: BTreeMap<String, FnStats>,
    /// Symbol regions skipped because they did not decode as code (only
    /// when the caller opted into treating undecodable regions as data).
    pub skipped_data: Vec<String>,
    /// Call-graph coverage statistics (interprocedural mode only).
    pub graph: Option<CallGraphStats>,
}

impl Report {
    /// `true` when no invariant violations were found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// `true` when at least one violation is [`Severity::Error`].
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.violations
            .iter()
            .any(|v| v.severity() == Severity::Error)
    }

    /// Violations of a given severity.
    #[must_use]
    pub fn count_by_severity(&self, severity: Severity) -> usize {
        self.violations
            .iter()
            .filter(|v| v.severity() == severity)
            .count()
    }

    /// Total instructions across all verified functions.
    #[must_use]
    pub fn instructions(&self) -> usize {
        self.stats.values().map(|s| s.instructions).sum()
    }

    /// Total `cre`/`crd` instructions across all verified functions.
    #[must_use]
    pub fn crypto_ops(&self) -> usize {
        self.stats.values().map(|s| s.cre + s.crd).sum()
    }

    /// Sorts violations deterministically, deduplicates per
    /// `(kind, fingerprint)`, and assigns stable fingerprints.
    ///
    /// Idempotent; [`crate::verify`] calls it before returning, so reports
    /// are byte-stable across runs.
    pub fn finalize(&mut self) {
        self.violations.sort_by(|a, b| {
            (&a.function, a.offset, a.kind, &a.detail).cmp(&(
                &b.function,
                b.offset,
                b.kind,
                &b.detail,
            ))
        });
        self.violations.dedup_by(|a, b| {
            a.kind == b.kind
                && a.function == b.function
                && a.offset == b.offset
                && a.detail == b.detail
        });
        let mut seen: BTreeMap<(ViolationKind, String, String, String), u64> = BTreeMap::new();
        for v in &mut self.violations {
            let key = (v.kind, v.function.clone(), v.insn.clone(), v.detail.clone());
            let occurrence = seen.entry(key).or_insert(0);
            v.fingerprint = fingerprint_of(v.kind, &v.function, &v.insn, &v.detail, *occurrence);
            *occurrence += 1;
        }
        self.skipped_data.sort();
        self.skipped_data.dedup();
    }

    /// Renders the report for humans: a verdict line, statistics, and one
    /// block per violation with its disassembly context.
    #[must_use]
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        if self.is_clean() {
            out.push_str(&format!(
                "OK: {} function(s), {} instruction(s), {} crypto op(s), 0 violations\n",
                self.stats.len(),
                self.instructions(),
                self.crypto_ops()
            ));
        } else {
            out.push_str(&format!(
                "FAIL: {} violation(s) across {} function(s)\n",
                self.violations.len(),
                self.stats.len()
            ));
            for v in &self.violations {
                out.push('\n');
                out.push_str(&v.to_string());
                out.push('\n');
                for line in &v.context {
                    let marker = if line.starts_with(&format!("{:#06x}:", v.offset)) {
                        "  > "
                    } else {
                        "    "
                    };
                    out.push_str(marker);
                    out.push_str(line);
                    out.push('\n');
                }
            }
        }
        for name in &self.skipped_data {
            out.push_str(&format!("note: `{name}` skipped (data, not code)\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_violation() -> Violation {
        Violation {
            kind: ViolationKind::PlainSpill,
            function: "main".into(),
            offset: 0x40,
            insn: "sd t0, 0(t6)".into(),
            detail: "sensitive plaintext in t0 stored to stack".into(),
            context: vec!["0x0040: 005b3023  sd t0, 0(t6)".into()],
            fingerprint: String::new(),
        }
    }

    #[test]
    fn clean_report_renders_ok() {
        let mut report = Report::default();
        report.stats.insert(
            "main".into(),
            FnStats {
                instructions: 7,
                cre: 1,
                crd: 1,
            },
        );
        assert!(report.is_clean());
        assert!(!report.has_errors());
        assert!(report.render_human().starts_with("OK:"));
    }

    #[test]
    fn violation_renders_with_address_and_kind() {
        let mut report = Report::default();
        report.violations.push(sample_violation());
        report.finalize();
        let human = report.render_human();
        assert!(human.starts_with("FAIL:"));
        assert!(human.contains("0x0040"));
        assert!(human.contains("plain-spill"));
        assert_eq!(report.violations[0].fingerprint.len(), 16);
    }

    #[test]
    fn severities_split_error_and_warning_kinds() {
        assert_eq!(ViolationKind::PlainSpill.severity(), Severity::Error);
        assert_eq!(ViolationKind::SpillGadget.severity(), Severity::Error);
        assert_eq!(ViolationKind::TweakDiversity.severity(), Severity::Warning);
        assert_eq!(ViolationKind::RawKeyFlow.severity(), Severity::Warning);
        // Warnings alone do not make a report "erroring".
        let mut report = Report::default();
        let mut v = sample_violation();
        v.kind = ViolationKind::TweakDiversity;
        report.violations.push(v);
        assert!(!report.is_clean());
        assert!(!report.has_errors());
        assert_eq!(report.count_by_severity(Severity::Warning), 1);
    }

    #[test]
    fn finalize_is_deterministic_and_dedups() {
        let mut a = Report::default();
        a.violations.push(sample_violation());
        a.violations.push(sample_violation()); // exact duplicate
        let mut other = sample_violation();
        other.offset = 0x10; // same shape at another site: kept, distinct fp
        a.violations.push(other);
        a.finalize();
        assert_eq!(a.violations.len(), 2);
        assert_eq!(a.violations[0].offset, 0x10);
        assert!(!a.violations[0].fingerprint.is_empty());
        assert_ne!(a.violations[0].fingerprint, a.violations[1].fingerprint);

        // Same content in reversed insertion order → identical rendering.
        let mut b = Report::default();
        let mut other = sample_violation();
        other.offset = 0x10;
        b.violations.push(other);
        b.violations.push(sample_violation());
        b.violations.push(sample_violation());
        b.finalize();
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn fingerprints_survive_code_motion() {
        // The same finding at a different offset keeps its fingerprint
        // (offsets are excluded from the hash).
        let mut a = Report::default();
        a.violations.push(sample_violation());
        a.finalize();
        let mut b = Report::default();
        let mut moved = sample_violation();
        moved.offset = 0x80;
        b.violations.push(moved);
        b.finalize();
        assert_eq!(a.violations[0].fingerprint, b.violations[0].fingerprint);
    }
}
