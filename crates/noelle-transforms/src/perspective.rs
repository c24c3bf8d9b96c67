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
    candidate_loops, parallelize_with, LoopTargetOpts, ParallelReport, ParallelizeError,
};
use crate::doall::distribute_cyclically;
use noelle_core::loop_abs::LoopAbstraction;
use noelle_core::noelle::{Abstraction, Noelle};
use noelle_core::task::TaskFunction;
use noelle_ir::cfg::Cfg;
use noelle_ir::dom::DomTree;
use noelle_ir::inst::{Inst, InstId};
use noelle_ir::module::{FuncId, Module};
use noelle_ir::value::Value;
use std::collections::BTreeSet;

/// Options controlling Perspective-lite.
#[derive(Clone, Debug)]
pub struct PerspectiveOptions {
    /// Number of tasks to distribute over.
    pub n_tasks: usize,
}

impl Default for PerspectiveOptions {
    fn default() -> PerspectiveOptions {
        PerspectiveOptions { n_tasks: 4 }
    }
}

/// Run Perspective-lite over the module.
pub fn run(noelle: &mut Noelle, opts: &PerspectiveOptions) -> ParallelReport {
    noelle.note(Abstraction::Pdg);
    noelle.note(Abstraction::ASccDag);
    let mut report = ParallelReport::default();
    for (fid, l) in candidate_loops(noelle, &LoopTargetOpts::default()) {
        let fname = noelle.module().func(fid).name.clone();
        let la = noelle.loop_abstraction(fid, l.clone());
        if la.is_doall() {
            // Plain DOALL territory; Perspective adds nothing here. Leave it
            // to DOALL (do not double-parallelize in combined pipelines).
            report.skipped.push((
                fname,
                l.header,
                "plain DOALL (no privatization needed)".into(),
            ));
            continue;
        }
        let Some(cell) = privatizable_scratch(noelle.module(), fid, &la) else {
            report
                .skipped
                .push((fname, l.header, "no privatizable object".into()));
            continue;
        };
        let task_name = format!("{fname}.pers.{}", l.header.0);
        match noelle.edit(|tx| {
            parallelize_with(
                tx.module_touching([fid]),
                fid,
                &la,
                opts.n_tasks,
                &task_name,
                |m, task| {
                    privatize(m, task, cell)?;
                    distribute_cyclically(m, task)
                },
            )
        }) {
            Ok(()) => report.parallelized.push((fname, l.header)),
            Err(e) => report.skipped.push((fname, l.header, e.to_string())),
        }
    }
    report
}

/// Find a scratch allocation whose carried dependences are the *only*
/// obstacle to DOALL, and which every iteration writes before reading
/// (write-first ⇒ privatizable: per-task copies preserve semantics).
fn privatizable_scratch(m: &Module, fid: FuncId, la: &LoopAbstraction) -> Option<Value> {
    let f = m.func(fid);
    let l = &la.structure;
    if la.ivs.governing().is_none() || l.exit_blocks().len() != 1 {
        return None;
    }
    let handled = la.handled_recurrence_insts();

    // Collect the blocking carried edges and the pointers they touch.
    let mut blocking: Vec<(InstId, InstId)> = Vec::new();
    for e in la.pdg.edges() {
        if e.attrs.loop_carried
            && e.attrs.is_data()
            && la.pdg.is_internal(e.src)
            && la.pdg.is_internal(e.dst)
            && !(handled.contains(&e.src) && handled.contains(&e.dst))
        {
            blocking.push((e.src, e.dst));
        }
    }
    if blocking.is_empty() {
        return None;
    }
    // Every blocking endpoint must be a load/store through the SAME direct
    // alloca pointer (the scratch cell).
    let mut cells: BTreeSet<Value> = BTreeSet::new();
    for &(a, b) in &blocking {
        for i in [a, b] {
            match f.inst(i) {
                Inst::Load { ptr, .. } | Inst::Store { ptr, .. } => {
                    cells.insert(*ptr);
                }
                _ => return None,
            }
        }
    }
    let mut it = cells.into_iter();
    let cell = it.next()?;
    if it.next().is_some() {
        return None; // more than one object involved
    }
    // The cell must be a non-escaping alloca defined outside the loop.
    let cell_inst = cell.as_inst()?;
    if !matches!(f.inst(cell_inst), Inst::Alloca { .. }) || l.contains(f.parent_block(cell_inst)) {
        return None;
    }
    if noelle_analysis::alias::object_escapes(m, fid, cell_inst) {
        return None;
    }
    // The cell must not be a live-out (its final value unobserved after the
    // loop) and must be written before read in every iteration: every load
    // from it inside the loop is dominated by a store to it inside the loop
    // whose block also lies in the loop and dominates the load.
    let cfg = Cfg::new(f);
    let dt = DomTree::new(f, &cfg);
    let loop_stores: Vec<InstId> = f
        .inst_ids()
        .into_iter()
        .filter(|&i| {
            l.contains(f.parent_block(i))
                && matches!(f.inst(i), Inst::Store { ptr, .. } if *ptr == cell)
        })
        .collect();
    let loop_loads: Vec<InstId> = f
        .inst_ids()
        .into_iter()
        .filter(|&i| {
            l.contains(f.parent_block(i))
                && matches!(f.inst(i), Inst::Load { ptr, .. } if *ptr == cell)
        })
        .collect();
    for &ld in &loop_loads {
        let dominated = loop_stores.iter().any(|&st| {
            let (sb, lb) = (f.parent_block(st), f.parent_block(ld));
            if sb == lb {
                f.position_in_block(st) < f.position_in_block(ld)
            } else {
                dt.strictly_dominates(sb, lb)
            }
        });
        if !dominated {
            return None; // read-before-write: the value flows across iterations
        }
    }
    // No use of the cell's content after the loop (otherwise the final
    // iteration's value would need reconstruction).
    let used_after = f.inst_ids().into_iter().any(|i| {
        !l.contains(f.parent_block(i))
            && matches!(f.inst(i), Inst::Load { ptr, .. } if *ptr == cell)
    });
    if used_after {
        return None;
    }
    Some(cell)
}

/// Give the task its own private copy of the scratch cell.
fn privatize(m: &mut Module, task: &TaskFunction, cell: Value) -> Result<(), ParallelizeError> {
    // The cell arrived as a live-in: its loaded clone must be replaced by a
    // fresh per-task alloca.
    let Some(&loaded) = task.value_map.get(&cell) else {
        return Err(ParallelizeError::Shape(
            "privatizable cell is not a live-in".into(),
        ));
    };
    let tf = m.func_mut(task.fid);
    // Determine the allocation size from the original alloca type: the task
    // clone only sees an i64 slot, so allocate a fresh cell of the pointee
    // type of the pointer.
    let private = tf.insert_inst(
        task.entry,
        0,
        Inst::Alloca {
            ty: noelle_ir::types::Type::I64,
            count: Value::const_i64(1),
        },
    );
    tf.replace_all_uses(loaded, Value::Inst(private));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use noelle_core::noelle::AliasTier;
    use noelle_ir::parser::parse_module;
    use noelle_runtime::{run_module, RunConfig};

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

    #[test]
    fn privatizes_scratch_and_parallelizes() {
        let m = parse_module(PROGRAM).unwrap();
        let seq = run_module(&m, "main", &[], &RunConfig::default()).unwrap();

        // DOALL alone refuses the kernel loop (carried deps through %tmp).
        {
            let mut n = Noelle::new(m.clone(), AliasTier::Full);
            let fid = n.module().func_id_by_name("kernel").unwrap();
            let l = n.loops_of(fid)[0].clone();
            let la = n.loop_abstraction(fid, l);
            assert!(!la.is_doall(), "tmp cell must block plain DOALL");
        }

        let mut noelle = Noelle::new(m, AliasTier::Full);
        let report = run(&mut noelle, &PerspectiveOptions { n_tasks: 4 });
        assert!(
            report.parallelized.iter().any(|(f, _)| f == "kernel"),
            "{report:?}"
        );
        let m2 = noelle.into_module();
        noelle_ir::verifier::verify_module(&m2).unwrap_or_else(|e| panic!("verifies: {e}"));
        let par = run_module(&m2, "main", &[], &RunConfig::default()).unwrap();
        assert_eq!(par.ret_i64(), seq.ret_i64(), "semantics preserved");
        let speedup = seq.cycles as f64 / par.cycles as f64;
        assert!(speedup > 1.3, "speedup = {speedup:.2}");
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
        let seq = run_module(&m, "main", &[], &RunConfig::default()).unwrap();
        let mut noelle = Noelle::new(m, AliasTier::Full);
        let report = run(&mut noelle, &PerspectiveOptions { n_tasks: 4 });
        assert_eq!(report.count(), 0, "{report:?}");
        let m2 = noelle.into_module();
        let again = run_module(&m2, "main", &[], &RunConfig::default()).unwrap();
        assert_eq!(again.ret_i64(), seq.ret_i64());
    }
}
