//! Differential testing subsystem for the NOELLE reproduction.
//!
//! Four pieces, composed by the `noelle-fuzz` binary in `noelle-tools`:
//!
//! - [`generator`] — a deterministic, seed-driven random IR program
//!   generator emitting verifier-clean, trap-free modules that mix the
//!   corpus's loop shapes.
//! - [`oracle`] — the differential harness: interpret the original module,
//!   apply each transform, re-interpret, and compare return values, output
//!   traces, and the globals region of memory bit-for-bit. Every module
//!   also gets every other check: each runtime-observed memory dependence
//!   must be covered by the static PDG — a dynamic soundness check of the
//!   alias analysis — and the store, audit, plan, incremental and race
//!   oracles run too. No switch turns one off.
//! - [`reducer`] — a fixpoint shrinker preserving "still fails the oracle",
//!   used to turn failing seeds into minimized checked-in repros.
//! - [`driver`] — the campaign loop: replay the persisted corpus, run fresh
//!   seeds, persist + minimize new failures, and render a deterministic
//!   summary.
//!
//! The crate deliberately does **not** depend on `noelle-tools` (the tools
//! crate's binary depends on this one); the oracle instead takes an injected
//! list of [`oracle::FuzzTool`]s, which the binary builds from the shared
//! registry.

pub mod driver;
pub mod generator;
pub mod oracle;
pub mod reducer;
