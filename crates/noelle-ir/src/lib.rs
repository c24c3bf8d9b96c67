//! # noelle-ir
//!
//! A from-scratch SSA intermediate representation that plays the role LLVM IR
//! plays in the NOELLE paper (CGO 2022). The crates layered above
//! (`noelle-analysis`, `noelle-pdg`, `noelle-core`) provide the NOELLE
//! abstractions; this crate provides the low-level substrate they consume:
//!
//! - a typed, SSA-form IR with phi nodes, memory operations, `getelementptr`
//!   address arithmetic, direct and indirect calls ([`Module`], [`Function`],
//!   [`BasicBlock`], [`Inst`]);
//! - a [`FunctionBuilder`](builder::FunctionBuilder) for programmatic construction;
//! - a textual format with a [`printer`](mod@printer) and a [`parser`](mod@parser) that
//!   round-trip;
//! - a [`verifier`] enforcing SSA and type invariants;
//! - CFG utilities ([`mod@cfg`]), dominator and post-dominator trees ([`dom`]),
//!   a natural-loop forest ([`loops`] — the paper's "loop structure", LS) and
//!   the per-function layout index ([`layout`]: every instruction's block rank
//!   and position from one pass);
//! - deterministic IDs ([`ids`]) and extendible metadata ([`Module::metadata`])
//!   mirroring `noelle-meta-*` tooling.
//!
//! ## Example
//!
//! ```
//! use noelle_ir::builder::FunctionBuilder;
//! use noelle_ir::{Module, Type, BinOp, Value};
//!
//! let mut module = Module::new("example");
//! let mut b = FunctionBuilder::new("add1", vec![("x", Type::I64)], Type::I64);
//! let entry = b.entry_block();
//! b.switch_to(entry);
//! let x = b.arg(0);
//! let one = Value::const_i64(1);
//! let sum = b.binop(BinOp::Add, Type::I64, x, one);
//! b.ret(Some(sum));
//! module.add_function(b.finish());
//! assert!(noelle_ir::verifier::verify_module(&module).is_ok());
//! ```

pub mod builder;
pub mod bytes;
pub mod cfg;
pub mod dom;
pub mod ids;
pub mod inst;
pub mod layout;
pub mod loops;
pub mod module;
pub mod parser;
pub mod printer;
pub mod types;
pub mod value;
pub mod verifier;

pub use inst::{BinOp, Callee, CastOp, FcmpPred, IcmpPred, Inst, InstData, InstId, Terminator};
pub use module::{BasicBlock, BlockId, FuncId, Function, Global, GlobalId, GlobalInit, Module};
pub use types::{FloatWidth, IntWidth, Type};
pub use value::{Constant, Value};
