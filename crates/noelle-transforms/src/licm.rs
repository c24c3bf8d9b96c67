//! Loop-Invariant Code Motion, the NOELLE way.
//!
//! "It uses FR to hoist loop invariants from innermost loops to outermost
//! ones. Then, it uses INV to identify instructions that could be hoisted.
//! Finally, it uses LB to perform the hoist transformation." The invariant
//! detection is the paper's Algorithm 2 (PDG-powered, recursive); compare
//! with [`crate::baseline::licm_llvm`], which drives the same hoister with
//! Algorithm 1.

use crate::common::candidate_loops;
use noelle_analysis::alias::{underlying_objects, MemoryObject};
use noelle_core::invariants::InvariantSet;
use noelle_core::loop_builder::hoist_to_preheader;
use noelle_core::noelle::{Abstraction, Noelle};
use noelle_ir::inst::{Callee, Inst, InstId};
use noelle_ir::loops::LoopInfo;
use noelle_ir::module::{FuncId, Module};
use noelle_ir::value::Value;

/// What LICM did.
#[derive(Debug, Clone, Default)]
pub struct LicmReport {
    /// Total instructions hoisted.
    pub hoisted: usize,
    /// Per-loop counts: `(function, header, hoisted)`.
    pub per_loop: Vec<(String, noelle_ir::module::BlockId, usize)>,
}

/// True if executing `id` unconditionally in the pre-header is safe even
/// when the loop body would never run: no side effects and no possible
/// fault. Loads are speculatable when their address provably refers to
/// (whole) known allocations.
pub fn safe_to_speculate(m: &Module, fid: FuncId, id: InstId) -> bool {
    let f = m.func(fid);
    match f.inst(id) {
        Inst::Load { ptr, .. } => {
            let objs = underlying_objects(m, fid, *ptr);
            !objs.is_empty()
                && objs
                    .iter()
                    .all(|o| matches!(o, MemoryObject::Alloca(_, _) | MemoryObject::Global(_)))
        }
        Inst::Call {
            callee: Callee::Direct(cid),
            ..
        } => {
            let e = noelle_analysis::modref::external_effects(&m.func(*cid).name);
            m.func(*cid).is_declaration() && !e.reads_memory && !e.writes_memory && !e.io
        }
        Inst::Call { .. } | Inst::Store { .. } | Inst::Term(_) | Inst::Phi { .. } => false,
        Inst::Bin { op, rhs, .. } => {
            // Division by a possibly-zero value must not be speculated.
            !matches!(
                op,
                noelle_ir::inst::BinOp::Div | noelle_ir::inst::BinOp::Rem
            ) || matches!(rhs, Value::Const(noelle_ir::value::Constant::Int(v, _)) if *v != 0)
        }
        _ => true,
    }
}

/// Hoist the invariant instructions of one loop (those detected in `inv`)
/// into its pre-header, in dependence order. Returns the number hoisted.
///
/// This is the shared hoisting driver: the NOELLE tool and the LLVM-baseline
/// tool differ only in how `inv` was computed — exactly the comparison the
/// paper draws.
pub fn hoist_invariants(m: &mut Module, fid: FuncId, l: &LoopInfo, inv: &InvariantSet) -> usize {
    // Candidates in layout order; hoist iteratively so chains (x invariant,
    // y = x * 2) move together while respecting def-before-use in the
    // pre-header.
    let mut hoisted: Vec<InstId> = Vec::new();
    loop {
        let f = m.func(fid);
        let candidates: Vec<InstId> = f
            .inst_ids()
            .into_iter()
            .filter(|&id| {
                l.contains(f.parent_block(id))
                    && inv.contains(id)
                    && !hoisted.contains(&id)
                    && safe_to_speculate(m, fid, id)
            })
            .collect();
        let mut progressed = false;
        for id in candidates {
            let f = m.func(fid);
            // Every in-loop operand must already be hoisted.
            let mut ready = true;
            f.inst(id).for_each_operand(|op| {
                if let Value::Inst(d) = op {
                    ready &= !l.contains(f.parent_block(d)) || hoisted.contains(&d);
                }
            });
            if !ready {
                continue;
            }
            if hoist_to_preheader(m.func_mut(fid), l, id).is_ok() {
                hoisted.push(id);
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    hoisted.len()
}

/// Run NOELLE LICM over the whole module.
pub fn run(noelle: &mut Noelle) -> LicmReport {
    for a in [
        Abstraction::Fr,
        Abstraction::Inv,
        Abstraction::Lb,
        Abstraction::L,
        Abstraction::Ls,
        Abstraction::Pdg,
    ] {
        noelle.note(a);
    }
    let mut report = LicmReport::default();
    // Innermost first, so an invariant hoists out of a whole nest.
    let loops = candidate_loops(noelle);
    for (fid, forest, id) in loops.into_iter().rev() {
        let la = noelle.loop_abstraction_of(fid, &forest, id);
        let l = forest.loop_info(id);
        let fname = noelle.module().func(fid).name.clone();
        let inv = &la.invariants;
        let n = noelle.edit(|tx| hoist_invariants(tx.module_touching([fid]), fid, l, inv));
        if n > 0 {
            report.hoisted += n;
            report.per_loop.push((fname, l.header, n));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use noelle_core::noelle::AliasTier;
    use noelle_ir::parser::parse_module;
    use noelle_runtime::{run_module, RunConfig};

    const LICM_PROGRAM: &str = r#"
module "licmdemo" {
define i64 @kernel(i64 %a, i64 %b, i64 %n) {
entry:
  br header
header:
  %i = phi i64 [entry: i64 0] [body: %i2]
  %s = phi i64 [entry: i64 0] [body: %s2]
  %c = icmp slt i64 %i, %n
  condbr %c, body, exit
body:
  %x = mul i64 %a, %b
  %y = add i64 %x, i64 17
  %z = mul i64 %y, %a
  %s2 = add i64 %s, %z
  %i2 = add i64 %i, i64 1
  br header
exit:
  ret %s
}
define i64 @main() {
entry:
  %r = call i64 @kernel(i64 3, i64 5, i64 200)
  ret %r
}
}
"#;

    #[test]
    fn hoists_invariant_chain_and_preserves_semantics() {
        let m = parse_module(LICM_PROGRAM).unwrap();
        let before = run_module(&m, "main", &[], &RunConfig::default()).unwrap();
        let mut noelle = Noelle::new(m, AliasTier::Full);
        let report = run(&mut noelle);
        // x, y, z all hoist (the chain needs Algorithm 2's recursion).
        assert_eq!(report.hoisted, 3, "{report:?}");
        let m2 = noelle.into_module();
        noelle_ir::verifier::verify_module(&m2)
            .unwrap_or_else(|e| panic!("verifies after LICM: {e}"));
        let after = run_module(&m2, "main", &[], &RunConfig::default()).unwrap();
        assert_eq!(after.ret_i64(), before.ret_i64());
        assert!(
            after.cycles < before.cycles,
            "LICM must save cycles: {} -> {}",
            before.cycles,
            after.cycles
        );
    }

    #[test]
    fn division_by_variable_not_speculated() {
        let src = r#"
module "d" {
define i64 @kernel(i64 %a, i64 %b, i64 %n) {
entry:
  br header
header:
  %i = phi i64 [entry: i64 0] [body: %i2]
  %s = phi i64 [entry: i64 0] [body: %s2]
  %c = icmp slt i64 %i, %n
  condbr %c, body, exit
body:
  %q = div i64 %a, %b
  %s2 = add i64 %s, %q
  %i2 = add i64 %i, i64 1
  br header
exit:
  ret %s
}
define i64 @main() {
entry:
  %r = call i64 @kernel(i64 10, i64 0, i64 0)
  ret %r
}
}
"#;
        // The loop never runs and b = 0: hoisting the division would fault.
        let m = parse_module(src).unwrap();
        let before = run_module(&m, "main", &[], &RunConfig::default()).unwrap();
        assert_eq!(before.ret_i64(), Some(0));
        let mut noelle = Noelle::new(m, AliasTier::Full);
        let report = run(&mut noelle);
        assert_eq!(report.hoisted, 0, "{report:?}");
        let m2 = noelle.into_module();
        let after = run_module(&m2, "main", &[], &RunConfig::default()).unwrap();
        assert_eq!(after.ret_i64(), Some(0));
    }

    #[test]
    fn invariant_load_from_alloca_hoists() {
        let src = r#"
module "d" {
define i64 @main() {
entry:
  %cell = alloca i64, i64 1
  store i64 i64 42, %cell
  br header
header:
  %i = phi i64 [entry: i64 0] [body: %i2]
  %s = phi i64 [entry: i64 0] [body: %s2]
  %c = icmp slt i64 %i, i64 100
  condbr %c, body, exit
body:
  %v = load i64, %cell
  %s2 = add i64 %s, %v
  %i2 = add i64 %i, i64 1
  br header
exit:
  ret %s
}
}
"#;
        let m = parse_module(src).unwrap();
        let before = run_module(&m, "main", &[], &RunConfig::default()).unwrap();
        let mut noelle = Noelle::new(m, AliasTier::Full);
        let report = run(&mut noelle);
        assert_eq!(report.hoisted, 1, "{report:?}");
        let m2 = noelle.into_module();
        let after = run_module(&m2, "main", &[], &RunConfig::default()).unwrap();
        assert_eq!(after.ret_i64(), before.ret_i64());
    }
}
