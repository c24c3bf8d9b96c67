//! # noelle
//!
//! Umbrella crate of **NOELLE-rs**, a from-scratch Rust reproduction of
//! *"NOELLE Offers Empowering LLVM Extensions"* (CGO 2022). It re-exports
//! the workspace crates under one roof so examples and downstream users can
//! depend on a single crate:
//!
//! - [`ir`] — the SSA IR substrate (the LLVM-IR stand-in);
//! - [`analysis`] — the data-flow engine, alias analyses, scalar evolution;
//! - [`pdg`] — dependence graphs, aSCCDAG, complete call graph, islands;
//! - [`core`] — the NOELLE layer: demand-driven manager and the Table 1
//!   abstractions (ENV, Task, INV, IV, IVS, RD, L, FR, LB, SCD, AR, PRO);
//! - [`runtime`] — the IR interpreter + simulated multi-core machine;
//! - [`transforms`] — the ten custom tools (DOALL, HELIX, DSWP, LICM, DEAD,
//!   CARAT, COOS, PRVJ, TIME, Perspective-lite) and the evaluation baselines;
//! - [`workloads`] — the 41-benchmark synthetic corpus.
//!
//! ## Quickstart
//!
//! ```
//! use noelle::core::noelle::{AliasTier, Noelle};
//! use noelle::runtime::{run_module, RunConfig};
//!
//! // Build a workload, parallelize its hot loops with DOALL, and run both
//! // versions on the simulated machine.
//! let w = noelle::workloads::by_name("blackscholes").expect("known workload");
//! let module = w.build();
//! let seq = run_module(&module, "main", &[], &RunConfig::default()).expect("runs");
//!
//! let mut noelle = Noelle::new(module, AliasTier::Full);
//! noelle::transforms::parallelize(
//!     &mut noelle,
//!     noelle::transforms::Parallelizer::Doall,
//!     &noelle::transforms::LoopTargetOpts { min_hotness: 0.0, workers: 4 },
//! );
//! let par = run_module(&noelle.into_module(), "main", &[], &RunConfig::default())
//!     .expect("parallel version runs");
//! assert_eq!(seq.ret_i64(), par.ret_i64());
//! assert!(par.cycles < seq.cycles);
//! ```

pub use noelle_analysis as analysis;
pub use noelle_core as core;
pub use noelle_ir as ir;
pub use noelle_pdg as pdg;
pub use noelle_runtime as runtime;
pub use noelle_transforms as transforms;
pub use noelle_workloads as workloads;
