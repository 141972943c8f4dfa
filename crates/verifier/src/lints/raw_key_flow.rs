//! The raw-key-flow lint: no value derived from key material may reach a
//! general-purpose register or memory unencrypted.
//!
//! This is the KeyVisor invariant (arxiv 2410.01777): once a kernel can hold
//! raw keys in GPRs, every spill, swap, or transient-execution window leaks
//! them. The dataflow marks loads from manifest-declared key-storage symbols
//! as [`Val::Key`](crate::taint::Val) and propagates the taint through
//! arithmetic; this lint turns every escape — a load into a GPR, an
//! unencrypted store, a key passed as a call argument, a key returned in
//! `a0` — into a finding. Legacy key-install paths necessarily trip the
//! load rule today, which is the point: the findings inventory exactly the
//! sites a future `khcreate`/`khuse` handle scheme (ROADMAP item 3) must
//! replace. The corpus has no such site, and CI's exact verifier gate
//! fails on the first one.

use regvault_isa::abi::ARG_REGS;

use crate::diag::ViolationKind;
use crate::taint::{Event, RawViolation};

use super::{Finding, Lint, LintContext};

/// The raw-key-flow lint pass.
pub struct RawKeyFlow;

impl Lint for RawKeyFlow {
    fn kind(&self) -> ViolationKind {
        ViolationKind::RawKeyFlow
    }

    fn run(&self, ctx: &LintContext<'_>) -> Vec<Finding> {
        let mut findings = Vec::new();
        let mut push = |function: &str, offset: u64, detail: String| {
            findings.push(Finding {
                function: function.to_owned(),
                violation: RawViolation {
                    kind: ViolationKind::RawKeyFlow,
                    offset,
                    detail,
                },
            });
        };
        for (function, events) in ctx.facts {
            for event in events {
                match *event {
                    Event::KeyLoad { offset, rd } => push(
                        function,
                        offset,
                        format!(
                            "raw key material loaded from key storage into {rd} — keys must not reach general-purpose registers (KeyVisor invariant)"
                        ),
                    ),
                    Event::KeyStore { offset, rs2 } => push(
                        function,
                        offset,
                        format!(
                            "raw key material in {rs2} stored to memory without a wrapping cre"
                        ),
                    ),
                    Event::Call {
                        offset, key_args, ..
                    } if key_args != 0 => {
                        for (i, &reg) in ARG_REGS.iter().enumerate() {
                            if key_args & (1 << i) != 0 {
                                push(
                                    function,
                                    offset,
                                    format!(
                                        "raw key material passed as a plain call argument in {reg}"
                                    ),
                                );
                            }
                        }
                    }
                    Event::Ret {
                        offset,
                        a0_key: true,
                        ..
                    } => push(
                        function,
                        offset,
                        "raw key material returned to the caller in a0".to_owned(),
                    ),
                    _ => {}
                }
            }
        }
        findings
    }
}
