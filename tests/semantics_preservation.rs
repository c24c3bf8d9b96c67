//! Cross-crate integration tests: every custom tool must preserve the
//! observable semantics of every workload it touches — the transformed
//! program computes the same result on the simulated machine.

use noelle::core::noelle::{AliasTier, Noelle};
use noelle::runtime::{run_module, RunConfig};
use noelle::transforms as tools;

/// A representative slice of the corpus (one per kernel family) so the
/// debug-build test stays fast; the full sweep runs in the bench harness.
fn sample() -> Vec<noelle::workloads::Workload> {
    [
        "blackscholes",
        "canneal",
        "ferret",
        "fluidanimate",
        "swaptions",
        "crc32",
        "dijkstra",
        "qsort",
        "x264",
        "wrf",
    ]
    .iter()
    .map(|n| noelle::workloads::by_name(n).expect("workload exists"))
    .collect()
}

fn check_tool(name: &str, apply: impl Fn(&mut Noelle)) {
    for w in sample() {
        let m = w.build();
        let before = run_module(&m, "main", &[], &RunConfig::default())
            .unwrap_or_else(|e| panic!("{}: baseline failed: {e}", w.name));
        let mut noelle = Noelle::new(m, AliasTier::Full);
        apply(&mut noelle);
        let m2 = noelle.into_module();
        noelle::ir::verifier::verify_module(&m2)
            .unwrap_or_else(|e| panic!("{name} on {}: module no longer verifies: {e}", w.name));
        let after = run_module(&m2, "main", &[], &RunConfig::default())
            .unwrap_or_else(|e| panic!("{name} on {}: transformed run failed: {e}", w.name));
        assert_eq!(
            after.ret_i64(),
            before.ret_i64(),
            "{name} changed the result of {}",
            w.name
        );
    }
}

#[test]
fn licm_preserves_semantics() {
    check_tool("licm", |n| {
        tools::licm::run(n);
    });
}

#[test]
fn dead_preserves_semantics() {
    check_tool("dead", |n| {
        tools::dead::run(n, "main");
    });
}

#[test]
fn carat_preserves_semantics() {
    check_tool("carat", |n| {
        tools::carat::run(n);
    });
}

#[test]
fn coos_preserves_semantics() {
    check_tool("coos", |n| {
        tools::coos::run(n);
    });
}

#[test]
fn prvj_preserves_semantics() {
    check_tool("prvj", |n| {
        tools::prvj::run(n);
    });
}

#[test]
fn time_preserves_semantics() {
    check_tool("time", |n| {
        tools::time::run(n);
    });
}

#[test]
fn doall_preserves_semantics() {
    check_tool("doall", |n| {
        tools::parallelize(
            n,
            tools::Parallelizer::Doall,
            &tools::LoopTargetOpts {
                min_hotness: 0.0,
                workers: 4,
            },
        );
    });
}

#[test]
fn helix_preserves_semantics() {
    check_tool("helix", |n| {
        tools::parallelize(
            n,
            tools::Parallelizer::Helix,
            &tools::LoopTargetOpts {
                min_hotness: 0.0,
                workers: 4,
            },
        );
    });
}

#[test]
fn dswp_preserves_semantics() {
    check_tool("dswp", |n| {
        tools::parallelize(
            n,
            tools::Parallelizer::Dswp,
            &tools::LoopTargetOpts {
                min_hotness: 0.0,
                workers: 2,
            },
        );
    });
}

#[test]
fn perspective_preserves_semantics() {
    check_tool("perspective", |n| {
        tools::parallelize(
            n,
            tools::Parallelizer::Perspective,
            &tools::LoopTargetOpts {
                min_hotness: 0.0,
                workers: 4,
            },
        );
    });
}

#[test]
fn stacked_tools_compose() {
    // The paper's pipelines stack tools: LICM, then TIME, then DOALL, then
    // DEAD. The composition must still preserve semantics.
    for w in sample() {
        let m = w.build();
        let before = run_module(&m, "main", &[], &RunConfig::default()).expect("baseline");
        let mut n = Noelle::new(m, AliasTier::Full);
        tools::licm::run(&mut n);
        tools::time::run(&mut n);
        tools::parallelize(
            &mut n,
            tools::Parallelizer::Doall,
            &tools::LoopTargetOpts {
                min_hotness: 0.0,
                workers: 4,
            },
        );
        tools::dead::run(&mut n, "main");
        let m2 = n.into_module();
        noelle::ir::verifier::verify_module(&m2)
            .unwrap_or_else(|e| panic!("stack on {}: {e}", w.name));
        let after = run_module(&m2, "main", &[], &RunConfig::default())
            .unwrap_or_else(|e| panic!("stack on {}: {e}", w.name));
        assert_eq!(after.ret_i64(), before.ret_i64(), "stack broke {}", w.name);
    }
}

/// A loop with three reductions — an `i64 add`, an `i64 xor` and an
/// `f64 fadd` whose partials are small integers, so any association of them
/// rounds alike.
const THREE_REDUCTIONS: &str = r#"
module "three" {
define i64 @kernel(i64 %n) {
entry:
  br header
header:
  %i = phi i64 [entry: i64 0] [body: %i2]
  %s = phi i64 [entry: i64 7] [body: %s2]
  %x = phi i64 [entry: i64 5] [body: %x2]
  %f = phi f64 [entry: f64 1.0] [body: %f2]
  %c = icmp slt i64 %i, %n
  condbr %c, body, exit
body:
  %sq = mul i64 %i, %i
  %s2 = add i64 %s, %sq
  %k = mul i64 %i, i64 2654435761
  %x2 = xor i64 %x, %k
  %r = rem i64 %i, i64 7
  %g = sitofp i64 %r to f64
  %f2 = fadd f64 %f, %g
  %i2 = add i64 %i, i64 1
  br header
exit:
  %fi = fptosi f64 %f to i64
  %t = mul i64 %x, i64 3
  %u = add i64 %s, %t
  %w = mul i64 %fi, i64 1000003
  %z = add i64 %u, %w
  ret %z
}
define i64 @main() {
entry:
  %z = call i64 @kernel(i64 203)
  ret %z
}
}
"#;

/// The dispatcher folds the tasks' partials in one `merge` loop over the
/// task ids: DOALL on 1 to 12 workers writes the same parent code, which
/// verifies and computes what the sequential loop does.
#[test]
fn the_merge_is_one_loop_whatever_the_worker_count() {
    use noelle::core::architecture::Architecture;
    use noelle::transforms::common::{emit, gate, GateBuffers};
    let m = noelle::ir::parser::parse_module(THREE_REDUCTIONS).expect("parses");
    let seq = run_module(&m, "main", &[], &RunConfig::default()).expect("runs");
    let mut parent_sizes = Vec::new();
    for workers in [1, 2, 4, 8, 12] {
        let mut n = Noelle::new(m.clone(), AliasTier::Full);
        let fid = n.module().func_id_by_name("kernel").unwrap();
        let l = n.loop_forest(fid).loops()[0].id;
        let la = n.loop_abstraction(fid, l);
        assert_eq!(la.reductions.len(), 3, "add, xor and fadd");
        let arch = Architecture::default_machine();
        let recipe = gate(
            tools::Parallelizer::Doall,
            n.module(),
            fid,
            &la,
            &arch,
            workers,
            &mut GateBuffers::default(),
        )
        .expect("DOALL takes the loop");
        n.edit(|tx| emit(tx.module_touching([fid]), fid, &la, &recipe, workers))
            .expect("emits");
        let m2 = n.into_module();
        noelle::ir::verifier::verify_module(&m2)
            .unwrap_or_else(|e| panic!("{workers} workers: {e}"));
        parent_sizes.push(m2.func(fid).num_insts());
        let par = run_module(&m2, "main", &[], &RunConfig::default()).expect("runs");
        assert_eq!(par.counters["tasks"], workers as u64);
        assert_eq!(par.ret_i64(), seq.ret_i64(), "{workers} workers");
    }
    assert!(
        parent_sizes.iter().all(|&s| s == parent_sizes[0]),
        "the parent's instructions at 1, 2, 4, 8 and 12 workers: {parent_sizes:?}"
    );
}
