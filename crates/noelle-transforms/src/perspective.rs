//! Perspective-lite: privatization-aware parallelization.
//!
//! The paper ports Perspective (ASPLOS '20) — "a parallelizing compiler that
//! minimizes speculation and privatization costs" — onto NOELLE's PDG and
//! aSCCDAG. This reproduction implements the non-speculative core of that
//! planner: when the only dependences blocking DOALL are carried through a
//! *privatizable* scratch object (a function-local allocation that every
//! iteration overwrites before reading), the object is cloned per task and
//! the loop parallelizes like DOALL. Speculation support is out of scope, as
//! DESIGN.md documents.

use crate::common::{
    distribute_cyclically, emit_dispatcher, mechanics_gate, outline, ParallelizeError,
};
use noelle_core::loop_abs::LoopAbstraction;
use noelle_core::noelle::Abstraction;
use noelle_core::task::TaskFunction;
use noelle_ir::inst::{Inst, InstId};
use noelle_ir::module::{FuncId, Module};
use noelle_ir::value::Value;
use std::collections::BTreeSet;

/// The abstractions Perspective-lite asks NOELLE for (its Table 4 row).
pub const ABSTRACTIONS: [Abstraction; 2] = [Abstraction::Pdg, Abstraction::ASccDag];

/// Perspective-lite takes a loop that only a privatizable scratch cell
/// keeps from being DOALL, and returns that cell.
pub fn gate(m: &Module, fid: FuncId, la: &LoopAbstraction) -> Result<InstId, ParallelizeError> {
    if la.is_doall() {
        // Plain DOALL territory; Perspective adds nothing here. Leave it
        // to DOALL (do not double-parallelize in combined pipelines).
        return Err(ParallelizeError::Shape(
            "plain DOALL (no privatization needed)".into(),
        ));
    }
    let cell = privatizable_scratch(m, fid, la)
        .ok_or_else(|| ParallelizeError::Shape("no privatizable object".into()))?;
    mechanics_gate(m, fid, la, true)?;
    Ok(cell)
}

/// Outline the loop into `workers` DOALL tasks, each with its own copy of
/// `cell`.
pub fn emit(
    m: &mut Module,
    fid: FuncId,
    la: &LoopAbstraction,
    cell: InstId,
    workers: usize,
) -> Result<(), ParallelizeError> {
    let name = format!("{}.pers.{}", m.func(fid).name, la.structure().header.0);
    let alloca = m.func(fid).inst(cell).clone();
    let task = outline(m, fid, la, name)?;
    privatize(m, &task, Value::Inst(cell), alloca);
    distribute_cyclically(m, &task, la)?;
    emit_dispatcher(m, fid, la, &task, task.fid, workers, 0)
}

/// Find a scratch allocation whose carried dependences are the *only*
/// obstacle to DOALL, and which every iteration writes before reading
/// (write-first ⇒ privatizable: per-task copies preserve semantics).
fn privatizable_scratch(m: &Module, fid: FuncId, la: &LoopAbstraction) -> Option<InstId> {
    let f = m.func(fid);
    let l = la.structure();
    if la.ivs.governing().is_none() || l.num_exit_blocks() != 1 {
        return None;
    }
    // Every endpoint of a blocking edge must be a load/store through the
    // SAME direct alloca pointer (the scratch cell).
    let mut cells: BTreeSet<Value> = BTreeSet::new();
    for e in la.blocking_edges() {
        for i in [e.src, e.dst] {
            match f.inst(i) {
                Inst::Load { ptr, .. } | Inst::Store { ptr, .. } => {
                    cells.insert(*ptr);
                }
                _ => return None,
            }
        }
    }
    let mut it = cells.into_iter();
    // No blocking edge, no cell.
    let cell = it.next()?;
    if it.next().is_some() {
        return None; // more than one object involved
    }
    // The cell must be a non-escaping alloca defined outside the loop.
    let cell_inst = cell.as_inst()?;
    // A constant count, so each task can allocate its copy without a value
    // of the enclosing function.
    let Inst::Alloca {
        count: Value::Const(_),
        ..
    } = f.inst(cell_inst)
    else {
        return None;
    };
    if l.contains(f.parent_block(cell_inst)) {
        return None;
    }
    if noelle_analysis::alias::object_escapes(m, fid, cell_inst) {
        return None;
    }
    // The cell must not be a live-out (its final value unobserved after the
    // loop) and must be written before read in every iteration: every load
    // from it inside the loop is dominated by a store to it inside the loop
    // whose block also lies in the loop and dominates the load.
    let insts_where = |inside: bool| {
        f.block_order()
            .iter()
            .filter(move |&&b| l.contains(b) == inside)
            .flat_map(|&b| f.block(b).insts.iter().copied())
    };
    let stores_cell = |i: &InstId| matches!(f.inst(*i), Inst::Store { ptr, .. } if *ptr == cell);
    let loads_cell = |i: &InstId| matches!(f.inst(*i), Inst::Load { ptr, .. } if *ptr == cell);
    for ld in insts_where(true).filter(loads_cell) {
        let dominated = insts_where(true).filter(stores_cell).any(|st| {
            let (sb, lb) = (f.parent_block(st), f.parent_block(ld));
            if sb == lb {
                f.position_in_block(st) < f.position_in_block(ld)
            } else {
                la.dom.strictly_dominates(sb, lb)
            }
        });
        if !dominated {
            return None; // read-before-write: the value flows across iterations
        }
    }
    // No use of the cell's content after the loop (otherwise the final
    // iteration's value would need reconstruction).
    if insts_where(false).any(|i| loads_cell(&i)) {
        return None;
    }
    Some(cell_inst)
}

/// Give the task its own private copy of the scratch cell: a clone of the
/// original `alloca`, so the copy has the cell's type and size. The cell
/// arrived as a live-in; its loaded clone is replaced by the copy.
fn privatize(m: &mut Module, task: &TaskFunction, cell: Value, alloca: Inst) {
    let loaded = (task.value(cell))
        .expect("the gate's cell is defined outside the loop and used in it: a live-in");
    let tf = m.func_mut(task.fid);
    let private = tf.insert_inst(task.entry, 0, alloca);
    tf.replace_all_uses(loaded, Value::Inst(private));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{parallelize, LoopTargetOpts, Parallelizer};
    use noelle_core::noelle::{AliasTier, Noelle};
    use noelle_ir::parser::parse_module;
    use noelle_runtime::{run_module, RunConfig, RunResult};

    /// A loop blocked from DOALL only by a scratch cell that every iteration
    /// writes before reading — the privatization pattern Perspective
    /// removes without speculation.
    const PROGRAM: &str = r#"
module "persdemo" {
declare i64* @malloc(i64 %n)
define i64 @kernel(i64* %a, i64 %n) {
entry:
  %tmp = alloca i64, i64 1
  br header
header:
  %i = phi i64 [entry: i64 0] [body: %i2]
  %s = phi i64 [entry: i64 0] [body: %s2]
  %c = icmp slt i64 %i, %n
  condbr %c, body, exit
body:
  %p = gep i64, %a, %i
  %v = load i64, %p
  %sq = mul i64 %v, %v
  store i64 %sq, %tmp
  %t = load i64, %tmp
  %u = add i64 %t, %v
  %s2 = add i64 %s, %u
  %i2 = add i64 %i, i64 1
  br header
exit:
  ret %s
}
define i64 @main() {
entry:
  %buf = call i64* @malloc(i64 2048)
  br fill
fill:
  %i = phi i64 [entry: i64 0] [fill: %i2]
  %p = gep i64, %buf, %i
  store i64 %i, %p
  %i2 = add i64 %i, i64 1
  %c = icmp slt i64 %i2, i64 256
  condbr %c, fill, done
done:
  %s = call i64 @kernel(%buf, i64 256)
  ret %s
}
}
"#;

    fn run(m: &Module) -> RunResult {
        run_module(m, "main", &[], &RunConfig::default()).expect("runs")
    }

    fn ungated() -> LoopTargetOpts {
        LoopTargetOpts {
            min_hotness: 0.0,
            ..LoopTargetOpts::default()
        }
    }

    /// Run Perspective over `src`; the result must verify, compute what the
    /// sequential program computes, and be faster. Returns the report and
    /// the transformed module.
    fn privatized(src: &str) -> (crate::ParallelReport, Module) {
        let m = parse_module(src).unwrap();
        let seq = run(&m);
        let mut noelle = Noelle::new(m, AliasTier::Full);
        let report = parallelize(&mut noelle, Parallelizer::Perspective, &ungated());
        let m2 = noelle.into_module();
        noelle_ir::verifier::verify_module(&m2).unwrap_or_else(|e| panic!("verifies: {e}"));
        let par = run(&m2);
        assert_eq!(par.ret_i64(), seq.ret_i64(), "semantics preserved");
        let speedup = seq.cycles as f64 / par.cycles as f64;
        assert!(speedup > 1.3, "speedup = {speedup:.2}");
        (report, m2)
    }

    #[test]
    fn privatizes_scratch_and_parallelizes() {
        // DOALL alone refuses the kernel loop (carried deps through %tmp).
        {
            let mut n = Noelle::new(parse_module(PROGRAM).unwrap(), AliasTier::Full);
            let fid = n.module().func_id_by_name("kernel").unwrap();
            let la = n.loop_abstraction(fid, noelle_ir::loops::LoopId(0));
            assert!(!la.is_doall(), "tmp cell must block plain DOALL");
        }
        let (report, _) = privatized(PROGRAM);
        assert!(
            report.parallelized.iter().any(|(f, _)| f == "kernel"),
            "{report:?}"
        );
    }

    #[test]
    fn private_copy_has_the_cells_type() {
        // The same kernel with an `f64` scratch cell: the per-task copy
        // must be an `f64` cell too, or the task's accesses are ill-typed.
        let src = PROGRAM
            .replace("%tmp = alloca i64, i64 1", "%tmp = alloca f64, i64 1")
            .replace(
                "%sq = mul i64 %v, %v",
                "%vf = sitofp i64 %v to f64\n  %sq = fmul f64 %vf, %vf",
            )
            .replace("store i64 %sq, %tmp", "store f64 %sq, %tmp")
            .replace(
                "%t = load i64, %tmp",
                "%tf = load f64, %tmp\n  %t = fptosi f64 %tf to i64",
            );
        let (report, _) = privatized(&src);
        assert!(
            report.parallelized.iter().any(|(f, _)| f == "kernel"),
            "{report:?}"
        );
    }

    #[test]
    fn loop_inside_a_parallelized_loop_is_gone() {
        // The kernel with a small counting loop in the middle of its body:
        // once the outer loop is outlined, the inner one only exists on
        // bypassed dead blocks and gets no verdict.
        let src = PROGRAM
            .replace("[body: %i2]", "[tail: %i2]")
            .replace("[body: %s2]", "[tail: %s2]")
            .replace(
                "  %t = load i64, %tmp\n",
                "  br ih\nih:\n  %j = phi i64 [body: i64 0] [ih: %j2]\n  \
                 %j2 = add i64 %j, i64 1\n  %cj = icmp slt i64 %j2, i64 4\n  \
                 condbr %cj, ih, tail\ntail:\n  %t = load i64, %tmp\n",
            );
        let (report, m2) = privatized(&src);
        let kernel = m2.func(m2.func_id_by_name("kernel").unwrap());
        let oh = kernel.block_order()[1];
        assert_eq!(report.parallelized, [("kernel".to_string(), oh)]);
        assert!(
            report.skipped.iter().all(|(f, _, _)| f != "kernel"),
            "the inner loop is not a candidate any more: {report:?}"
        );
        let tasks = m2
            .functions()
            .iter()
            .filter(|f| f.name.contains(".pers."))
            .count();
        assert_eq!(tasks, 1);
    }

    #[test]
    fn read_before_write_cell_rejected() {
        // The cell carries real state across iterations: NOT privatizable.
        let src = r#"
module "t" {
define i64 @main() {
entry:
  %cell = alloca i64, i64 1
  store i64 i64 1, %cell
  br header
header:
  %i = phi i64 [entry: i64 0] [body: %i2]
  %c = icmp slt i64 %i, i64 10
  condbr %c, body, exit
body:
  %old = load i64, %cell
  %new = add i64 %old, i64 1
  store i64 %new, %cell
  %i2 = add i64 %i, i64 1
  br header
exit:
  %r = load i64, %cell
  ret %r
}
}
"#;
        let m = parse_module(src).unwrap();
        let seq = run(&m);
        let mut noelle = Noelle::new(m, AliasTier::Full);
        let report = parallelize(&mut noelle, Parallelizer::Perspective, &ungated());
        assert_eq!(report.count(), 0, "{report:?}");
        let m2 = noelle.into_module();
        assert_eq!(run(&m2).ret_i64(), seq.ret_i64());
    }
}
