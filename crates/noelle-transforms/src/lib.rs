//! # noelle-transforms
//!
//! The ten custom tools of Table 3 of the paper, implemented on top of the
//! NOELLE-rs abstractions:
//!
//! | Tool | Module | Role |
//! |---|---|---|
//! | DOALL | [`doall`] | parallelize independent loops (cyclic iteration distribution) |
//! | HELIX | [`helix`] | parallelize loops with sequential segments synchronized across cores |
//! | DSWP | [`dswp`] | decoupled software pipelining over the aSCCDAG |
//! | LICM | [`licm`] | loop-invariant code motion (Algorithm 2-powered) |
//! | DEAD | [`dead`] | dead-function elimination over the complete call graph |
//! | CARAT | [`carat`] | memory-guard injection + redundancy elimination |
//! | COOS | [`coos`] | compiler-based timing: inject OS callback calls |
//! | PRVJ | [`prvj`] | pseudo-random value generator selection |
//! | TIME | [`time`] | compare canonicalization for timing-speculative cores |
//! | PERS | [`perspective`] | privatization-aware parallelization (Perspective-lite) |
//!
//! Baselines used by the evaluation live in [`baseline`]: an LLVM-style LICM
//! driven by Algorithm 1, and a gcc/icc-like *conservative* auto-parallelizer
//! that only handles do-while-shaped, trivially independent loops.

pub mod baseline;
pub mod carat;
pub mod common;
pub mod coos;
pub mod dead;
pub mod doall;
pub mod dswp;
pub mod helix;
pub mod licm;
pub mod perspective;
pub mod prvj;
pub mod time;

pub use common::{parallelize, LoopTargetOpts, ParallelReport, ParallelizeError, Parallelizer};
