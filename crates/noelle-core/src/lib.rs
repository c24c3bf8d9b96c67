//! # noelle-core
//!
//! The NOELLE compilation layer: the abstractions of Table 1 of the paper,
//! provided demand-driven through the [`Noelle`] manager so
//! "users only pay for the abstractions they need":
//!
//! | Paper abstraction | Module |
//! |---|---|
//! | PDG | re-exported from `noelle-pdg`, cached by the manager |
//! | aSCCDAG | `noelle-pdg::sccdag`, bundled into [`loop_abs`] |
//! | Call graph (CG) | `noelle-pdg::callgraph`, cached by the manager |
//! | Environment (ENV) | [`mod@env`] |
//! | Task (T) | [`task`] |
//! | Data-flow engine (DFE) | re-exported from `noelle-analysis` |
//! | Loop structure (LS) | `noelle-ir::loops`, cached by the manager |
//! | Profiler (PRO) | [`profiler`] |
//! | Scheduler (SCD) | [`scheduler`] |
//! | Invariant (INV) | [`invariants`] (Algorithms 1 and 2 of the paper) |
//! | Induction variable (IV) | [`induction`] |
//! | IV stepper (IVS) | [`ivstepper`] |
//! | Reduction (RD) | [`reduction`] |
//! | Loop (L) | [`loop_abs`] |
//! | Forest (FR) | [`forest`] |
//! | Loop builder (LB) | [`loop_builder`] |
//! | Islands (ISL) | `noelle-pdg::islands` |
//! | Architecture (AR) | [`architecture`] |

pub mod architecture;
pub mod env;
pub mod forest;
pub mod induction;
pub mod invariants;
pub mod ivstepper;
pub mod json;
pub mod loop_abs;
pub mod loop_builder;
pub mod noelle;
pub mod profiler;
pub mod reduction;
pub mod scheduler;
pub mod task;
pub mod wire;

pub use noelle::{Abstraction, AliasTier, Noelle};
