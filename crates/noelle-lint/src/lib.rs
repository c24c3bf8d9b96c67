//! noelle-lint: static diagnostics built on the NOELLE abstraction layer.
//!
//! The paper's pitch is that once a compiler infrastructure offers the PDG,
//! dependence summaries, the data-flow engine, and the task/environment
//! abstractions as reusable components, new analyses become cheap to write.
//! This crate is that claim exercised in the other direction from the
//! parallelizers: instead of *transforming* code, the lint passes *audit* it.
//!
//! The headline pass is the NL0001 race detector ([`races`]): it proves (or
//! refutes) that every cross-task memory dependence in the parallelizers'
//! output is mediated by the environment, queue, or sequential-segment
//! protocol, and reports any unmediated shared access pair with both
//! locations. The supporting suite ([`passes`]) covers dead stores, unused
//! environment slots, hoistable pure calls, and IR hygiene.
//!
//! Findings carry stable codes and sort deterministically ([`diag`]), so the
//! JSON renderer is byte-identical across runs — a property the test suite
//! and the fuzz oracle both rely on.

pub mod audit;
pub mod diag;
pub mod framework;
pub mod passes;
pub mod races;

pub use audit::{audit_code, audit_findings, run_audit, run_audit_scoped};
pub use diag::{
    canonical_order, has_errors, render_compact, render_json, render_text, sort_findings, Finding,
    IrLoc, Severity, Tally,
};
pub use framework::{
    check_usage, passes, run_checks, run_global_checks, run_local_checks, LintPass,
};
pub use races::detect_races;
