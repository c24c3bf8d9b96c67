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
        tools::prvj::run(n, &tools::prvj::PrvjOptions::default());
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
