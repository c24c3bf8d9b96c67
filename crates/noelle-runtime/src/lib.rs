//! # noelle-runtime
//!
//! The execution substrate of NOELLE-rs: an IR interpreter coupled to a
//! **simulated multi-core machine**. It plays three roles from the paper:
//!
//! 1. **Profiler backend** (`noelle-prof-coverage` + training inputs): runs
//!    a module and produces the block/invocation counts the PRO abstraction
//!    queries.
//! 2. **Parallel runtime**: implements the `noelle.*` intrinsics the
//!    parallelizing custom tools emit — task dispatch over simulated cores,
//!    inter-core queues (DSWP), and sequential-segment gates (HELIX) — with
//!    communication costs taken from the AR (architecture) abstraction.
//! 3. **Hardware stand-in** for the evaluation: wall-clock speedups of
//!    Figure 5 become virtual-cycle speedups on a deterministic
//!    discrete-event simulation (see DESIGN.md's substitution table).
//!
//! ## Example
//!
//! ```
//! use noelle_ir::parser::parse_module;
//! use noelle_runtime::{run_module, RunConfig};
//!
//! let m = parse_module(r#"
//! module "demo" {
//! define i64 @main() {
//! entry:
//!   %x = add i64 i64 40, i64 2
//!   ret %x
//! }
//! }
//! "#).unwrap();
//! let result = run_module(&m, "main", &[], &RunConfig::default()).unwrap();
//! assert_eq!(result.ret_i64(), Some(42));
//! assert!(result.cycles > 0);
//! ```

pub mod machine;
pub mod memory;

pub use machine::{run_module, RtError, RunConfig, RunResult};
pub use memory::{Memory, RtVal};
