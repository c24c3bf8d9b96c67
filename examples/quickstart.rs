//! Quickstart: parse a program from NOELLE-rs textual IR, load the NOELLE
//! layer, inspect the Loop abstraction of its hot loop, parallelize it, and
//! run both versions on the simulated machine.
//!
//! Run with: `cargo run --example quickstart`

use noelle::core::noelle::{AliasTier, Noelle};
use noelle::runtime::{run_module, RunConfig};

const PROGRAM: &str = r#"
module "quickstart" {
declare i64* @malloc(i64 %n)
define i64 @dot(i64* %a, i64* %b, i64 %n) {
entry:
  br header
header:
  %i = phi i64 [entry: i64 0] [body: %i2]
  %s = phi i64 [entry: i64 0] [body: %s2]
  %c = icmp slt i64 %i, %n
  condbr %c, body, exit
body:
  %pa = gep i64, %a, %i
  %pb = gep i64, %b, %i
  %va = load i64, %pa
  %vb = load i64, %pb
  %prod = mul i64 %va, %vb
  %s2 = add i64 %s, %prod
  %i2 = add i64 %i, i64 1
  br header
exit:
  ret %s
}
define i64 @main() {
entry:
  %a = call i64* @malloc(i64 4096)
  %b = call i64* @malloc(i64 4096)
  br fill
fill:
  %i = phi i64 [entry: i64 0] [fill: %i2]
  %pa = gep i64, %a, %i
  %pb = gep i64, %b, %i
  store i64 %i, %pa
  %x = and i64 %i, i64 7
  store i64 %x, %pb
  %i2 = add i64 %i, i64 1
  %c = icmp slt i64 %i2, i64 512
  condbr %c, fill, done
done:
  %r = call i64 @dot(%a, %b, i64 512)
  ret %r
}
}
"#;

fn main() {
    let module = noelle::ir::parser::parse_module(PROGRAM).expect("program parses");
    noelle::ir::verifier::verify_module(&module).expect("program verifies");
    let seq = run_module(&module, "main", &[], &RunConfig::default()).expect("runs");
    println!(
        "sequential: result = {:?}, cycles = {}",
        seq.ret_i64(),
        seq.cycles
    );

    // Load the NOELLE layer and inspect the dot-product loop.
    let mut noelle = Noelle::new(module, AliasTier::Full);
    let fid = noelle.module().func_id_by_name("dot").expect("dot exists");
    let l = noelle.loop_forest(fid).loops()[0].id;
    let la = noelle.loop_abstraction(fid, l);
    println!(
        "loop: {} SCCs, {} IVs (governing: {}), {} reductions, DOALL-able: {}",
        la.sccdag.nodes().len(),
        la.ivs.len(),
        la.ivs.governing().is_some(),
        la.reductions.len(),
        la.is_doall(),
    );

    // Parallelize and re-run.
    let report = noelle::transforms::parallelize(
        &mut noelle,
        noelle::transforms::Parallelizer::Doall,
        &noelle::transforms::LoopTargetOpts {
            min_hotness: 0.0,
            workers: 4,
        },
    );
    println!("DOALL parallelized {} loop(s)", report.count());
    let m2 = noelle.into_module();
    noelle::ir::verifier::verify_module(&m2).expect("still verifies");
    let par = run_module(&m2, "main", &[], &RunConfig::default()).expect("parallel runs");
    println!(
        "parallel (4 cores): result = {:?}, cycles = {}, speedup = {:.2}x",
        par.ret_i64(),
        par.cycles,
        seq.cycles as f64 / par.cycles as f64
    );
    assert_eq!(seq.ret_i64(), par.ret_i64());
}
