//! Regression corpus: micro programs "to illustrate corner cases or common
//! code patterns" (the paper's §2.4 testing infrastructure), each run before
//! and after transformation. Includes the paper's testing hook of forcing a
//! parallelizer onto one specific loop.

use noelle::core::noelle::{AliasTier, Noelle};
use noelle::ir::module::BlockId;
use noelle::runtime::{run_module, RunConfig};
use noelle::transforms::common::{emit, gate, GateBuffers};
use noelle::transforms::{parallelize, LoopTargetOpts, ParallelizeError, Parallelizer};

fn run_src(src: &str) -> noelle::runtime::RunResult {
    let m = noelle::ir::parser::parse_module(src).expect("parses");
    noelle::ir::verifier::verify_module(&m).expect("verifies");
    run_module(&m, "main", &[], &RunConfig::default()).expect("runs")
}

/// The §2.4 testing hook: force technique `t` onto the loop headed by
/// `header` in `function`, and nothing else — its abstraction, its gate,
/// then the emit of the recipe the gate returned.
fn force(
    n: &mut Noelle,
    t: Parallelizer,
    function: &str,
    header: BlockId,
) -> Result<(), ParallelizeError> {
    let fid = n
        .module()
        .func_id_by_name(function)
        .expect("function exists");
    let forest = n.loop_forest(fid);
    let l = forest.loops().iter().find(|l| l.header == header);
    let la = n.loop_abstraction(fid, l.expect("loop exists").id);
    let arch = n.architecture();
    let recipe = gate(
        t,
        n.module(),
        fid,
        &la,
        &arch,
        4,
        &mut GateBuffers::default(),
    )?;
    n.edit(|tx| emit(tx.module_touching([fid]), fid, &la, &recipe, 4))
}

fn doall_all(src: &str) -> (noelle::ir::Module, usize) {
    let m = noelle::ir::parser::parse_module(src).expect("parses");
    let mut n = Noelle::new(m, AliasTier::Full);
    let report = parallelize(
        &mut n,
        Parallelizer::Doall,
        &LoopTargetOpts {
            min_hotness: 0.0,
            workers: 4,
        },
    );
    (n.into_module(), report.count())
}

#[test]
fn zero_trip_loop_parallelizes_to_identity() {
    // The loop body never runs; the parallel version must still produce the
    // reduction's initial value.
    let src = r#"
module "t" {
declare i64* @malloc(i64 %n)
define i64 @k(i64* %a, i64 %n) {
entry:
  br header
header:
  %i = phi i64 [entry: i64 0] [body: %i2]
  %s = phi i64 [entry: i64 77] [body: %s2]
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
  %b = call i64* @malloc(i64 8)
  %r = call i64 @k(%b, i64 0)
  ret %r
}
}
"#;
    let before = run_src(src);
    assert_eq!(before.ret_i64(), Some(77));
    let (m2, count) = doall_all(src);
    assert!(count >= 1, "zero-trip loop is still statically DOALL-able");
    let after = run_module(&m2, "main", &[], &RunConfig::default()).expect("runs");
    assert_eq!(after.ret_i64(), Some(77));
}

#[test]
fn single_iteration_loop_is_exact() {
    let src = r#"
module "t" {
declare i64* @malloc(i64 %n)
define i64 @k(i64* %a, i64 %n) {
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
  %b = call i64* @malloc(i64 8)
  store i64 i64 41, %b
  %r = call i64 @k(%b, i64 1)
  ret %r
}
}
"#;
    let (m2, _) = doall_all(src);
    let after = run_module(&m2, "main", &[], &RunConfig::default()).expect("runs");
    assert_eq!(after.ret_i64(), Some(41));
}

#[test]
fn trip_count_smaller_than_task_count() {
    // 3 iterations over 4 tasks: one task runs zero iterations.
    let src = r#"
module "t" {
declare i64* @malloc(i64 %n)
define i64 @k(i64* %a, i64 %n) {
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
  %b = call i64* @malloc(i64 24)
  store i64 i64 10, %b
  %p1 = gep i64, %b, i64 1
  store i64 i64 20, %p1
  %p2 = gep i64, %b, i64 2
  store i64 i64 30, %p2
  %r = call i64 @k(%b, i64 3)
  ret %r
}
}
"#;
    let (m2, count) = doall_all(src);
    assert_eq!(count, 1);
    let after = run_module(&m2, "main", &[], &RunConfig::default()).expect("runs");
    assert_eq!(after.ret_i64(), Some(60));
}

#[test]
fn forcing_a_specific_loop_parallelizes_only_it() {
    // Two DOALL-able kernels; the §2.4 hook restricts the tool to one.
    let w = noelle::workloads::by_name("vips").expect("exists");
    let m = w.build();
    let baseline = run_module(&m, "main", &[], &RunConfig::default()).expect("runs");
    let mut n = Noelle::new(m, AliasTier::Full);
    force(&mut n, Parallelizer::Doall, "kernel0", BlockId(1)).expect("kernel0's loop is DOALL");
    let m2 = n.into_module();
    let tasks: Vec<&str> = m2
        .functions()
        .iter()
        .map(|f| f.name.as_str())
        .filter(|name| name.contains(".doall."))
        .collect();
    assert_eq!(tasks, ["kernel0.doall.1"]);
    let after = run_module(&m2, "main", &[], &RunConfig::default()).expect("runs");
    assert_eq!(after.ret_i64(), baseline.ret_i64());
}

#[test]
fn switch_terminator_executes_correctly() {
    let src = r#"
module "t" {
define i64 @classify(i64 %x) {
entry:
  switch %x, other [0: zero] [1: one]
zero:
  ret i64 100
one:
  ret i64 200
other:
  ret i64 300
}
define i64 @main() {
entry:
  %a = call i64 @classify(i64 0)
  %b = call i64 @classify(i64 1)
  %c = call i64 @classify(i64 9)
  %ab = add i64 %a, %b
  %r = add i64 %ab, %c
  ret %r
}
}
"#;
    assert_eq!(run_src(src).ret_i64(), Some(600));
}

#[test]
fn narrow_integer_widths_wrap_correctly() {
    let src = r#"
module "t" {
define i64 @main() {
entry:
  %a = add i8 i8 120, i8 10
  %w = sext i8 %a to i64
  %b = add i16 i16 32760, i16 100
  %w2 = sext i16 %b to i64
  %r = add i64 %w, %w2
  ret %r
}
}
"#;
    // 120+10 wraps to -126 in i8; 32760+100 wraps to -32676 in i16.
    assert_eq!(run_src(src).ret_i64(), Some(-126 + -32676));
}

#[test]
fn recursion_executes_and_profiles() {
    let src = r#"
module "t" {
define i64 @fib(i64 %n) {
entry:
  %c = icmp slt i64 %n, i64 2
  condbr %c, base, rec
base:
  ret %n
rec:
  %n1 = sub i64 %n, i64 1
  %n2 = sub i64 %n, i64 2
  %a = call i64 @fib(%n1)
  %b = call i64 @fib(%n2)
  %r = add i64 %a, %b
  ret %r
}
define i64 @main() {
entry:
  %r = call i64 @fib(i64 12)
  ret %r
}
}
"#;
    let m = noelle::ir::parser::parse_module(src).unwrap();
    let cfg = RunConfig {
        collect_profiles: true,
        ..RunConfig::default()
    };
    let r = run_module(&m, "main", &[], &cfg).expect("runs");
    assert_eq!(r.ret_i64(), Some(144));
    assert!(r.profiles.invocations("fib") > 100);
}

#[test]
fn multi_exit_loops_are_refused_but_run() {
    // A search loop with an early break: DOALL refuses (multiple exits);
    // the module must be left untouched and correct.
    let src = r#"
module "t" {
declare i64* @malloc(i64 %n)
define i64 @find(i64* %a, i64 %n, i64 %needle) {
entry:
  br header
header:
  %i = phi i64 [entry: i64 0] [next: %i2]
  %c = icmp slt i64 %i, %n
  condbr %c, body, notfound
body:
  %p = gep i64, %a, %i
  %v = load i64, %p
  %hit = icmp eq i64 %v, %needle
  condbr %hit, found, next
next:
  %i2 = add i64 %i, i64 1
  br header
found:
  ret %i
notfound:
  ret i64 -1
}
define i64 @main() {
entry:
  %b = call i64* @malloc(i64 64)
  br fill_h
fill_h:
  %i = phi i64 [entry: i64 0] [fill_b: %i2]
  %c = icmp slt i64 %i, i64 8
  condbr %c, fill_b, go
fill_b:
  %p = gep i64, %b, %i
  %x = mul i64 %i, i64 3
  store i64 %x, %p
  %i2 = add i64 %i, i64 1
  br fill_h
go:
  %r = call i64 @find(%b, i64 8, i64 15)
  ret %r
}
}
"#;
    let before = run_src(src);
    assert_eq!(before.ret_i64(), Some(5)); // 5*3 == 15
    let m = noelle::ir::parser::parse_module(src).unwrap();
    let mut n = Noelle::new(m, AliasTier::Full);
    let taken = force(&mut n, Parallelizer::Doall, "find", BlockId(1));
    assert!(taken.is_err(), "the early exit must refuse DOALL");
    let after = run_module(&n.into_module(), "main", &[], &RunConfig::default()).expect("runs");
    assert_eq!(after.ret_i64(), Some(5));
}

#[test]
fn fuzz_corpus_repros_report_runtime_errors_instead_of_aborting() {
    // Every minimized repro persisted by `noelle-fuzz` under
    // tests/corpus/fuzz/ must parse, verify, and either run cleanly or
    // surface a *reported* RtError. The checked-in type-confusion repro is
    // the regression test for the former process-aborting `as_i`/`as_f`
    // panics in the interpreter's value accessors.
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus")
        .join("fuzz");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("fuzz corpus dir exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "nir"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "fuzz corpus should be seeded");
    let mut confusions = 0;
    for p in paths {
        let src = std::fs::read_to_string(&p).expect("readable");
        let m = noelle::ir::parser::parse_module(&src)
            .unwrap_or_else(|e| panic!("{}: does not parse: {e}", p.display()));
        noelle::ir::verifier::verify_module(&m)
            .unwrap_or_else(|e| panic!("{}: does not verify: {e:?}", p.display()));
        // A panic here (rather than Err) is exactly the regression this
        // corpus exists to catch.
        if let Err(e) = run_module(&m, "main", &[], &RunConfig::default()) {
            if matches!(e, noelle::runtime::RtError::TypeConfusion(_)) {
                confusions += 1;
            }
        }
    }
    assert!(
        confusions >= 1,
        "the type-confusion repro should exercise the typed-error path"
    );
}

#[test]
fn float_kernels_preserve_bitwise_results_under_doall() {
    // FP reductions reassociate; with identical per-task math and a
    // deterministic combine order, repeated runs must agree with each other.
    let w = noelle::workloads::by_name("basicmath").expect("exists");
    let (m1, c1) = {
        let mut n = Noelle::new(w.build(), AliasTier::Full);
        let r = parallelize(
            &mut n,
            Parallelizer::Doall,
            &LoopTargetOpts {
                min_hotness: 0.0,
                workers: 4,
            },
        );
        (n.into_module(), r.count())
    };
    assert!(c1 >= 1);
    let a = run_module(&m1, "main", &[], &RunConfig::default()).expect("runs");
    let b = run_module(&m1, "main", &[], &RunConfig::default()).expect("runs");
    assert_eq!(a.ret_i64(), b.ret_i64());
    assert_eq!(a.cycles, b.cycles);
}
