//! DOALL: parallelize loops with no (unhandled) loop-carried data
//! dependences by distributing iterations among cores.
//!
//! The implementation follows the paper's recipe: PRO + FR + L select the
//! most profitable loops; PDG/aSCCDAG prove independence; ENV + T organize
//! live-ins/live-outs and materialize the task; IVS performs the iteration
//! distribution (cyclic: task `t` starts at `start + t*step` and strides by
//! `n_tasks*step`); RD parallelizes reductions by accumulator cloning.

use crate::common::{
    distribute_cyclically, emit_dispatcher, mechanics_gate, outline, ParallelizeError,
};
use noelle_core::loop_abs::LoopAbstraction;
use noelle_core::noelle::Abstraction;
use noelle_ir::module::{FuncId, Module};

/// The abstractions DOALL asks NOELLE for (its Table 4 row).
pub const ABSTRACTIONS: [Abstraction; 13] = [
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
];

/// DOALL takes a loop whose carried dependences are all handled (IVs,
/// reductions) and whose iterations the emitter can distribute.
pub fn gate(m: &Module, fid: FuncId, la: &LoopAbstraction) -> Result<(), ParallelizeError> {
    if !la.is_doall() {
        return Err(ParallelizeError::CarriedDependences);
    }
    mechanics_gate(m, fid, la, true)
}

/// Outline the loop into `workers` tasks that split its iterations
/// cyclically.
pub fn emit(
    m: &mut Module,
    fid: FuncId,
    la: &LoopAbstraction,
    workers: usize,
) -> Result<(), ParallelizeError> {
    let name = format!("{}.doall.{}", m.func(fid).name, la.structure().header.0);
    let task = outline(m, fid, la, name)?;
    distribute_cyclically(m, &task, la)?;
    emit_dispatcher(m, fid, la, &task, task.fid, workers, 0)
}

#[cfg(test)]
mod tests {
    use crate::common::{parallelize, LoopTargetOpts, Parallelizer};
    use noelle_core::noelle::{AliasTier, Noelle};
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
        let report = parallelize(
            &mut noelle,
            Parallelizer::Doall,
            &LoopTargetOpts {
                min_hotness: 0.0,
                ..LoopTargetOpts::default()
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
        let report = parallelize(
            &mut noelle,
            Parallelizer::Doall,
            &LoopTargetOpts {
                min_hotness: 0.0,
                ..LoopTargetOpts::default()
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
        let report = parallelize(
            &mut noelle,
            Parallelizer::Doall,
            &LoopTargetOpts {
                min_hotness: 2.0, // impossible
                ..LoopTargetOpts::default()
            },
        );
        assert_eq!(report.count(), 0);
        assert!(report.skipped.iter().all(|(_, _, why)| why == "cold loop"));
    }
}
