//! End-to-end test of the paper's Figure 1 compilation flow, driven through
//! the same library entry points the `noelle-*` binaries use:
//!
//! source modules → noelle-whole-IR → noelle-prof-coverage →
//! noelle-meta-prof-embed → noelle-meta-pdg-embed → noelle-load(DOALL) →
//! noelle-meta-clean → noelle-bin.

use noelle::core::noelle::{AliasTier, Noelle};
use noelle::core::profiler::Profiles;
use noelle::runtime::{run_module, RunConfig};

const UNIT_A: &str = r#"
module "unit_a" {
declare i64 @hot(i64* %a, i64 %n)
declare i64* @malloc(i64 %n)
define i64 @main() {
entry:
  %buf = call i64* @malloc(i64 4096)
  br fill_h
fill_h:
  %i = phi i64 [entry: i64 0] [fill_b: %i2]
  %c = icmp slt i64 %i, i64 512
  condbr %c, fill_b, done
fill_b:
  %p = gep i64, %buf, %i
  %x = and i64 %i, i64 63
  store i64 %x, %p
  %i2 = add i64 %i, i64 1
  br fill_h
done:
  %r = call i64 @hot(%buf, i64 512)
  ret %r
}
}
"#;

const UNIT_B: &str = r#"
module "unit_b" {
define i64 @hot(i64* %a, i64 %n) {
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
  %sq = mul i64 %v, %v
  %s2 = add i64 %s, %sq
  %i2 = add i64 %i, i64 1
  br header
exit:
  ret %s
}
}
"#;

#[test]
fn figure1_flow_end_to_end() {
    // 1. noelle-whole-IR: link the translation units.
    let a = noelle::ir::parser::parse_module(UNIT_A).expect("unit A parses");
    let b = noelle::ir::parser::parse_module(UNIT_B).expect("unit B parses");
    let mut module = noelle_tools::link_modules(vec![a, b]).expect("links");
    noelle::ir::verifier::verify_module(&module).expect("linked module verifies");

    // 2. noelle-prof-coverage with a training input.
    let prof_cfg = RunConfig {
        collect_profiles: true,
        ..RunConfig::default()
    };
    let baseline = run_module(&module, "main", &[], &prof_cfg).expect("profiling run");
    assert!(baseline.profiles.invocations("hot") == 1);

    // 3. noelle-meta-prof-embed (+ survive a print/parse round trip, as the
    //    on-disk flow does).
    baseline.profiles.embed(&mut module);
    let text = noelle::ir::printer::print_module(&module);
    let mut module = noelle::ir::parser::parse_module(&text).expect("reparses");
    assert_eq!(
        Profiles::from_module(&module).expect("profiles kept"),
        baseline.profiles
    );

    // 4. noelle-meta-pdg-embed: deterministic IDs + PDG metadata.
    noelle::ir::ids::assign_ids(&mut module);
    module
        .metadata
        .insert("noelle.pdg".into(), "embedded-by-test".into());

    // 5. noelle-load + the DOALL custom tool, hotness-guided.
    let mut noelle = Noelle::new(module, AliasTier::Full);
    let report = noelle::transforms::parallelize(
        &mut noelle,
        noelle::transforms::Parallelizer::Doall,
        &noelle::transforms::LoopTargetOpts {
            min_hotness: 0.05,
            workers: 4,
        },
    );
    assert!(
        report.parallelized.iter().any(|(f, _)| f == "hot"),
        "hot loop must parallelize: {report:?}"
    );
    let mut module = noelle.into_module();

    // 6. noelle-meta-clean strips NOELLE metadata.
    noelle::ir::ids::clean_noelle_metadata(&mut module);
    assert!(module.metadata.keys().all(|k| !k.starts_with("noelle.")));

    // 7. noelle-bin: execute the final program.
    noelle::ir::verifier::verify_module(&module).expect("final module verifies");
    let parallel = run_module(&module, "main", &[], &RunConfig::default()).expect("final run");
    assert_eq!(parallel.ret_i64(), baseline.ret_i64());
    assert!(
        parallel.cycles < baseline.cycles,
        "parallel {} vs baseline {}",
        parallel.cycles,
        baseline.cycles
    );
}

#[test]
fn workload_corpus_links_with_runtime_stubs() {
    // Linking a workload against an empty runtime module is a no-op merge.
    let w = noelle::workloads::by_name("dijkstra").expect("exists");
    let m = w.build();
    let before = run_module(&m, "main", &[], &RunConfig::default()).expect("runs");
    let extra = noelle::ir::Module::new("empty_runtime");
    let linked = noelle_tools::link_modules(vec![m, extra]).expect("links");
    let after = run_module(&linked, "main", &[], &RunConfig::default()).expect("runs");
    assert_eq!(before.ret_i64(), after.ret_i64());
}
