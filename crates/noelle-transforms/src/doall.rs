//! DOALL: parallelize loops with no (unhandled) loop-carried data
//! dependences by distributing iterations among cores.
//!
//! The implementation follows the paper's recipe: PRO + FR + L select the
//! most profitable loops; PDG/aSCCDAG prove independence; ENV + T organize
//! live-ins/live-outs and materialize the task; IVS performs the iteration
//! distribution (cyclic: task `t` starts at `start + t*step` and strides by
//! `n_tasks*step`); RD parallelizes reductions by accumulator cloning.

use crate::common::{
    candidate_loops, parallelize_with, task_loop, DoneLoops, LoopTargetOpts, ParallelReport,
    ParallelizeError,
};
use noelle_core::ivstepper::{offset_start, scale_step};
use noelle_core::noelle::{Abstraction, Noelle};
use noelle_core::task::TaskFunction;
use noelle_ir::module::{FuncId, Module};
use noelle_ir::value::Value;

/// Options controlling loop selection. `target.workers` is the number of
/// tasks (cores) iterations are distributed over; pinning a single loop is
/// the paper's testing hook: "a user can force a parallelizing custom tool
/// to parallelize only a given loop".
#[derive(Clone, Debug, Default)]
pub struct DoallOptions {
    /// Shared loop selection: hotness gate, pinning, worker count.
    pub target: LoopTargetOpts,
}

/// Apply DOALL to every eligible loop of the module.
pub fn run(noelle: &mut Noelle, opts: &DoallOptions) -> ParallelReport {
    for a in [
        Abstraction::Pro,
        Abstraction::Fr,
        Abstraction::L,
        Abstraction::Env,
        Abstraction::Task,
        Abstraction::Lb,
        Abstraction::Iv,
        Abstraction::Ivs,
        Abstraction::Inv,
        Abstraction::Rd,
        Abstraction::ASccDag,
        Abstraction::Ar,
        Abstraction::Ls,
    ] {
        noelle.note(a);
    }
    let mut report = ParallelReport::default();
    let profiles = noelle.profiles();
    let have_profiles = !profiles.block_counts.is_empty();

    let mut done = DoneLoops::default();
    for (fid, l) in candidate_loops(noelle, &opts.target) {
        if done.subsume(fid, &l) {
            continue;
        }
        let fname = noelle.module().func(fid).name.clone();
        if have_profiles
            && profiles.loop_hotness(noelle.module(), fid, &l) < opts.target.min_hotness
        {
            report
                .skipped
                .push((fname, l.header, "cold loop".to_string()));
            continue;
        }
        let la = noelle.loop_abstraction(fid, l.clone());
        if !la.is_doall() {
            report
                .skipped
                .push((fname, l.header, "loop-carried dependences".to_string()));
            continue;
        }
        let task_name = format!("{fname}.doall.{}", l.header.0);
        match noelle.edit(|tx| {
            parallelize_with(
                tx.module_touching([fid]),
                fid,
                &la,
                opts.target.workers,
                &task_name,
                distribute_cyclically,
            )
        }) {
            Ok(()) => {
                report.parallelized.push((fname, l.header));
                done.push(fid, l);
            }
            Err(e) => report.skipped.push((fname, l.header, e.to_string())),
        }
    }
    report
}

/// Decide, without mutating anything, whether DOALL would apply to this
/// loop: the exact gate sequence of [`run`] + [`parallelize_with`] +
/// [`distribute_cyclically`], evaluated structurally against the original
/// loop (the task clone is isomorphic, so recurrence shapes transfer).
/// The parallelism auditor issues its "clean" verdicts from this check and
/// the fuzz oracle holds them against the real transform's outcome.
pub fn precheck(
    m: &Module,
    fid: FuncId,
    la: &noelle_core::loop_abs::LoopAbstraction,
) -> Result<(), ParallelizeError> {
    // run(): dependence gate.
    if !la.is_doall() {
        return Err(ParallelizeError::CarriedDependences);
    }
    // parallelize_with(): live-out gate.
    if !crate::common::liveouts_supported(la) {
        return Err(ParallelizeError::UnsupportedLiveOut);
    }
    let l = &la.structure;
    // outline_loop_as_task() + emit_dispatcher(): single exit block.
    if l.exit_blocks().len() != 1 {
        return Err(ParallelizeError::Shape(
            "loop has multiple exit blocks".into(),
        ));
    }
    let f = m.func(fid);
    // emit_dispatcher(): a pre-header must exist or be creatable.
    if l.preheader.is_none()
        && !f
            .block_order()
            .iter()
            .any(|&b| !l.contains(b) && f.successors(b).contains(&l.header))
    {
        return Err(ParallelizeError::Shape(
            "header has no out-of-loop predecessor".into(),
        ));
    }
    // distribute_cyclically(): every affine recurrence must be steppable.
    let recs = noelle_analysis::scev::affine_recurrences(f, l);
    if recs.is_empty() {
        return Err(ParallelizeError::NoGoverningIv);
    }
    for rec in &recs {
        let phi_ok = matches!(f.inst(rec.phi), noelle_ir::inst::Inst::Phi { .. });
        let update_ok = matches!(
            f.inst(rec.update),
            noelle_ir::inst::Inst::Bin {
                op: noelle_ir::inst::BinOp::Add | noelle_ir::inst::BinOp::Sub,
                lhs,
                rhs,
                ..
            } if *lhs == Value::Inst(rec.phi) || *rhs == Value::Inst(rec.phi)
        );
        if !phi_ok || !update_ok {
            return Err(ParallelizeError::Shape(
                "induction update has unexpected shape".into(),
            ));
        }
    }
    Ok(())
}

/// Rewrite the task's governing IV for cyclic distribution: start at
/// `start + task_id*step`, stride by `n_tasks*step` — pure IVS usage.
pub fn distribute_cyclically(m: &mut Module, task: &TaskFunction) -> Result<(), ParallelizeError> {
    let l = task_loop(m, task.fid);
    let tf = m.func_mut(task.fid);
    let recs = noelle_analysis::scev::affine_recurrences(tf, &l);
    // Every affine recurrence must stride by n_tasks; the governing one
    // controls termination, secondary IVs (e.g. a second index) follow suit.
    if recs.is_empty() {
        return Err(ParallelizeError::NoGoverningIv);
    }
    for rec in &recs {
        offset_start(tf, &l, rec, Value::Arg(1))
            .map_err(|e| ParallelizeError::Shape(e.to_string()))?;
        scale_step(tf, &l, rec, Value::Arg(2))
            .map_err(|e| ParallelizeError::Shape(e.to_string()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use noelle_core::noelle::AliasTier;
    use noelle_ir::parser::parse_module;
    use noelle_runtime::{run_module, RunConfig};

    const SUM_PROGRAM: &str = r#"
module "sum" {
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
  %buf = call i64* @malloc(i64 8000)
  br fill
fill:
  %i = phi i64 [entry: i64 0] [fill: %i2]
  %p = gep i64, %buf, %i
  store i64 %i, %p
  %i2 = add i64 %i, i64 1
  %c = icmp slt i64 %i2, i64 1000
  condbr %c, fill, done
done:
  %s = call i64 @kernel(%buf, i64 1000)
  ret %s
}
}
"#;

    #[test]
    fn doall_preserves_semantics_and_speeds_up() {
        let m = parse_module(SUM_PROGRAM).unwrap();
        let seq = run_module(&m, "main", &[], &RunConfig::default()).unwrap();
        assert_eq!(seq.ret_i64(), Some(499500));

        let mut noelle = Noelle::new(m, AliasTier::Full);
        let report = run(
            &mut noelle,
            &DoallOptions {
                target: LoopTargetOpts {
                    min_hotness: 0.0,
                    ..LoopTargetOpts::default()
                },
            },
        );
        // Both the kernel loop and the fill loop in main are DOALL-able...
        // but the fill loop's store is provably per-iteration distinct, so
        // both should parallelize.
        assert!(report.count() >= 1, "report: {report:?}");
        assert!(
            report.parallelized.iter().any(|(f, _)| f == "kernel"),
            "kernel loop must parallelize: {report:?}"
        );

        let m2 = noelle.into_module();
        noelle_ir::verifier::verify_module(&m2)
            .unwrap_or_else(|e| panic!("transformed module verifies: {e}"));
        let par = run_module(&m2, "main", &[], &RunConfig::default()).unwrap();
        assert_eq!(par.ret_i64(), Some(499500), "semantics preserved");
        assert!(par.counters.get("tasks").copied().unwrap_or(0) >= 4);
        let speedup = seq.cycles as f64 / par.cycles as f64;
        assert!(speedup > 1.5, "speedup = {speedup:.2}");
    }

    #[test]
    fn sequential_loop_is_skipped() {
        // Pointer-chase recurrence: DOALL must refuse.
        let src = r#"
module "seq" {
define i64 @main() {
entry:
  %cell = alloca i64, i64 1
  store i64 i64 1, %cell
  br header
header:
  %i = phi i64 [entry: i64 0] [body: %i2]
  %c = icmp slt i64 %i, i64 100
  condbr %c, body, exit
body:
  %v = load i64, %cell
  %v2 = mul i64 %v, i64 3
  store i64 %v2, %cell
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
        let report = run(
            &mut noelle,
            &DoallOptions {
                target: LoopTargetOpts {
                    min_hotness: 0.0,
                    ..LoopTargetOpts::default()
                },
            },
        );
        assert_eq!(report.count(), 0, "{report:?}");
        assert!(report
            .skipped
            .iter()
            .any(|(_, _, why)| why.contains("dependences")));
        // Untouched module still runs identically.
        let m2 = noelle.into_module();
        let again = run_module(&m2, "main", &[], &RunConfig::default()).unwrap();
        assert_eq!(again.ret_i64(), seq.ret_i64());
    }

    #[test]
    fn cold_loops_skipped_with_profiles() {
        let m = parse_module(SUM_PROGRAM).unwrap();
        // Profile the run, embed, then set an impossible hotness threshold.
        let cfg = RunConfig {
            collect_profiles: true,
            ..RunConfig::default()
        };
        let r = run_module(&m, "main", &[], &cfg).unwrap();
        let mut m = m;
        r.profiles.embed(&mut m);
        let mut noelle = Noelle::new(m, AliasTier::Full);
        let report = run(
            &mut noelle,
            &DoallOptions {
                target: LoopTargetOpts {
                    min_hotness: 2.0, // impossible
                    ..LoopTargetOpts::default()
                },
            },
        );
        assert_eq!(report.count(), 0);
        assert!(report.skipped.iter().all(|(_, _, why)| why == "cold loop"));
    }
}
