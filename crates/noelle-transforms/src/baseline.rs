//! Baselines for the evaluation.
//!
//! - [`licm_llvm`] — loop-invariant code motion driven by the paper's
//!   **Algorithm 1** (low-level dominator/alias logic, non-recursive, basic
//!   alias tier) instead of Algorithm 2. The difference between its hoist
//!   counts and NOELLE LICM's is the Figure 4 signal.
//! - [`conservative_parallelize`] — the gcc/icc stand-in used in the
//!   Figure 5 comparison: a textbook auto-parallelizer that only handles
//!   do-while-shaped loops, detects induction variables the LLVM way, uses
//!   only the basic alias tier, and supports no reductions. On while-shaped,
//!   reduction-carrying benchmark loops it finds (almost) nothing — matching
//!   the paper's observation that "both gcc and icc did not obtain
//!   additional performance benefits from their parallelization techniques".

use crate::common::{
    candidate_loops, distribute_cyclically, emit_dispatcher, mechanics_gate, outline,
    ParallelReport,
};
use noelle_analysis::alias::BasicAlias;
use noelle_analysis::modref::ModRefSummaries;
use noelle_core::induction::ivs_llvm;
use noelle_core::invariants::invariants_llvm;
use noelle_core::loop_abs::LoopAbstraction;
use noelle_core::noelle::{AliasTier, Noelle};
use noelle_ir::cfg::Cfg;
use noelle_ir::dom::DomTree;
use noelle_ir::loops::LoopForest;
use noelle_ir::module::Module;
use noelle_pdg::pdg::PdgBuilder;

/// LICM with Algorithm 1: returns total instructions hoisted.
///
/// A hoist moves instructions within one function: it moves no mod/ref
/// summary, so the summaries are computed once, and it moves the CFG only
/// when it adds a pre-header, so the dominator tree is built once per
/// function and again only after that.
pub fn licm_llvm(m: &mut Module) -> usize {
    let modref = ModRefSummaries::compute(m);
    let mut hoisted_total = 0;
    let fids: Vec<_> = m.func_ids().collect();
    for fid in fids {
        let f = m.func(fid);
        if f.is_declaration() {
            continue;
        }
        let cfg = Cfg::new(f);
        let mut dt = DomTree::new(f, &cfg);
        let forest = LoopForest::new(f, &cfg, &dt);
        let loops: Vec<_> = forest
            .innermost_first()
            .into_iter()
            .map(|lid| forest.loop_info(lid).clone())
            .collect();
        for l in loops {
            let inv = invariants_llvm(m, fid, &l, &dt, &BasicAlias::new(m), &modref);
            let blocks = m.func(fid).num_blocks();
            hoisted_total += crate::licm::hoist_invariants(m, fid, &l, &inv);
            if m.func(fid).num_blocks() != blocks {
                let f = m.func(fid);
                dt = DomTree::new(f, &Cfg::new(f));
            }
        }
    }
    hoisted_total
}

/// The gcc/icc-like conservative auto-parallelizer.
pub fn conservative_parallelize(m: Module, n_tasks: usize) -> (Module, ParallelReport) {
    let mut report = ParallelReport::default();
    // Basic alias tier only.
    let mut noelle = Noelle::new(m, AliasTier::Basic);
    for (fid, forest, id) in candidate_loops(&mut noelle) {
        let l = forest.loop_info(id);
        let fname = noelle.module().func(fid).name.clone();

        // 1. LLVM-style IV detection: do-while shape required.
        let ivs = ivs_llvm(noelle.module().func(fid), l);
        if ivs.governing().is_none() {
            report
                .skipped
                .push((fname, l.header, "no induction variable (loop shape)".into()));
            continue;
        }
        // 2. Independence with the basic alias tier only, and no reduction
        //    support: any carried dependence disqualifies.
        let la = {
            let m = noelle.module();
            let basic = BasicAlias::new(m);
            let builder = PdgBuilder::new(m, &basic);
            LoopAbstraction::build(&builder, fid, &forest, id)
        };
        let iv_insts = la.ivs.recurrence_insts();
        let has_carried = la.pdg.edges().iter().any(|e| {
            e.attrs.loop_carried
                && e.attrs.is_data()
                && la.pdg.is_internal(e.src)
                && la.pdg.is_internal(e.dst)
                && !(iv_insts.contains(&e.src) && iv_insts.contains(&e.dst))
        });
        if has_carried {
            report
                .skipped
                .push((fname, l.header, "possible loop-carried dependence".into()));
            continue;
        }
        if !la.env.live_outs.is_empty() {
            report.skipped.push((
                fname,
                l.header,
                "live-out values (no reduction support)".into(),
            ));
            continue;
        }
        // Gated like every emitter: an edit does not roll back, so a late
        // failure would leave a half-outlined task function behind.
        let name = format!("{fname}.autopar.{}", l.header.0);
        let outcome = mechanics_gate(noelle.module(), fid, &la, true).and_then(|()| {
            noelle.edit(|tx| {
                let m = tx.module_touching([fid]);
                let task = outline(m, fid, &la, name)?;
                distribute_cyclically(m, &task, &la)?;
                emit_dispatcher(m, fid, &la, &task, task.fid, n_tasks, 0)
            })
        });
        match outcome {
            Ok(()) => report.parallelized.push((fname, l.header)),
            Err(e) => report.skipped.push((fname, l.header, e.to_string())),
        }
    }
    (noelle.into_module(), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use noelle_ir::parser::parse_module;

    /// The canonical while-shaped reduction loop: NOELLE DOALL handles it;
    /// the conservative baseline must not.
    const WHILE_REDUCTION: &str = r#"
module "t" {
declare i64* @malloc(i64 %n)
define i64 @kernel(i64* %a, i64 %n) {
entry:
  br header
header:
  %i = phi i64 [entry: i64 0] [body: %i2]
  %s = phi i64 [entry: i64 0] [body: %s2]
  %c = icmp slt i64 %i, %n
  condbr %c, body, exit
body:
  %p = gep i64, %a, %i
  %v = load i64, %p
  %s2 = add i64 %s, %v
  %i2 = add i64 %i, i64 1
  br header
exit:
  ret %s
}
define i64 @main() {
entry:
  %buf = call i64* @malloc(i64 800)
  %s = call i64 @kernel(%buf, i64 100)
  ret %s
}
}
"#;

    #[test]
    fn conservative_finds_nothing_on_while_reduction() {
        let m = parse_module(WHILE_REDUCTION).unwrap();
        let (m2, report) = conservative_parallelize(m, 4);
        assert_eq!(report.count(), 0, "{report:?}");
        // Untouched.
        noelle_ir::verifier::verify_module(&m2).expect("verifies");
        assert!(report
            .skipped
            .iter()
            .any(|(_, _, why)| why.contains("loop shape")));
    }

    #[test]
    fn licm_llvm_hoists_less_than_noelle() {
        // Chain: x invariant, y = x*2 chained. Algorithm 1 hoists only x...
        // and then, because the driver iterates, y's operand is now outside
        // the loop — but Algorithm 1 computes the invariant *set* up front,
        // so y is still missed in the same run.
        let src = r#"
module "t" {
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
  %s2 = add i64 %s, %y
  %i2 = add i64 %i, i64 1
  br header
exit:
  ret %s
}
}
"#;
        let mut m_llvm = parse_module(src).unwrap();
        let hoisted_llvm = licm_llvm(&mut m_llvm);
        assert_eq!(hoisted_llvm, 1, "Algorithm 1 finds only x");

        let m_noelle = parse_module(src).unwrap();
        let mut noelle = Noelle::new(m_noelle, AliasTier::Full);
        let report = crate::licm::run(&mut noelle);
        assert_eq!(report.hoisted, 2, "Algorithm 2 finds x and y");
        noelle_ir::verifier::verify_module(&m_llvm).expect("baseline result verifies");
    }
}
