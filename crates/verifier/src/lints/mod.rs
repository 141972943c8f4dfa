//! Whole-program lint passes over the interprocedural analysis results.
//!
//! Lints consume the per-function [`Event`](crate::taint::Event) streams,
//! the fixpoint [`FnSummary`](crate::summary::FnSummary) map, and the
//! recovered [`CallGraph`](crate::callgraph::CallGraph) — they add *cross-
//! cutting* judgements the core dataflow does not make:
//!
//! * [`tweak_diversity`] — the CipherGuard dictionary precondition: a
//!   `(key, tweak)` pair that can repeat across distinct plaintexts makes
//!   ciphertext equality observable (arxiv 2502.13401);
//! * [`raw_key_flow`] — the KeyVisor invariant: no value derived from key
//!   material may reach a general-purpose register or memory unencrypted
//!   (arxiv 2410.01777, ROADMAP item 3 groundwork);
//! * [`spill_gadget`] — a callee-saved register holding sensitive plaintext
//!   live across a call into a function that (transitively) saves that
//!   register to memory without a wrapping `cre`.
//!
//! Lints only run in interprocedural mode
//! ([`VerifyOptions::interprocedural`](crate::VerifyOptions)); their
//! findings carry [`Severity`](crate::diag::Severity) levels and stable
//! fingerprints, and any finding fails `regvault-cli verify`, which CI runs
//! over the whole corpus.

pub mod raw_key_flow;
pub mod spill_gadget;
pub mod tweak_diversity;

use std::collections::BTreeMap;

use crate::callgraph::CallGraph;
use crate::diag::ViolationKind;
use crate::summary::FnSummary;
use crate::taint::{Event, RawViolation};

/// Everything a lint pass may look at.
#[derive(Debug, Clone, Copy)]
pub struct LintContext<'a> {
    /// Final-pass event stream per function symbol.
    pub facts: &'a BTreeMap<String, Vec<Event>>,
    /// Fixpoint summaries per function symbol.
    pub summaries: &'a BTreeMap<String, FnSummary>,
    /// The recovered call graph.
    pub graph: &'a CallGraph,
}

/// A lint finding: a raw violation anchored to a function.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Function symbol the finding is anchored in.
    pub function: String,
    /// The violation (kind, offset, detail).
    pub violation: RawViolation,
}

/// A whole-program lint pass.
pub trait Lint {
    /// The violation kind this lint reports.
    fn kind(&self) -> ViolationKind;
    /// Stable lint name (the violation kind's id).
    fn name(&self) -> &'static str {
        self.kind().id()
    }
    /// Runs the pass and returns its findings.
    fn run(&self, ctx: &LintContext<'_>) -> Vec<Finding>;
}

/// All registered lint passes, in report order.
#[must_use]
pub fn all() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(tweak_diversity::TweakDiversity),
        Box::new(raw_key_flow::RawKeyFlow),
        Box::new(spill_gadget::SpillGadget),
    ]
}
