//! Benchmarks over the experiment regeneration paths: one measurement per
//! table/figure family, each exercising the same code the `src/bin`
//! printers run (on reduced inputs so the bench stays fast).
//!
//! Plain `std::time` harness (harness = false; the registry is offline, so
//! no criterion): each measurement reports the median of `SAMPLES` runs.

use noelle_analysis::alias::{AliasAnalysis, AliasStack, AndersenAlias, BasicAlias};
use noelle_analysis::modref::ModRefSummaries;
use noelle_core::invariants::{invariants_llvm, invariants_noelle};
use noelle_core::noelle::{AliasTier, Noelle};
use noelle_ir::cfg::Cfg;
use noelle_ir::dom::DomTree;
use noelle_ir::loops::LoopForest;
use noelle_pdg::pdg::{memory_dependence_stats, PdgBuilder};
use noelle_runtime::{run_module, RunConfig};
use std::time::Instant;

const SAMPLES: usize = 10;

fn median_micros(mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

fn report(name: &str, micros: f64) {
    println!("{name:<40} {micros:>12.1} us");
}

fn sample() -> noelle_ir::Module {
    noelle_workloads::by_name("streamcluster")
        .expect("exists")
        .build()
}

fn bench_fig3() {
    let m = sample();
    report(
        "fig3_dependence_stats",
        median_micros(|| {
            let basic = BasicAlias::new(&m);
            let andersen = AndersenAlias::new(&m);
            let tiers = [&basic as &dyn AliasAnalysis, &andersen];
            let stack = AliasStack::new(&tiers);
            std::hint::black_box((
                memory_dependence_stats(&m, &basic),
                memory_dependence_stats(&m, &stack),
            ));
        }),
    );
}

fn bench_fig4() {
    let m = sample();
    report(
        "fig4_invariants_both_algorithms",
        median_micros(|| {
            let modref = ModRefSummaries::compute(&m);
            let basic = BasicAlias::new(&m);
            let builder = PdgBuilder::new(&m, &basic);
            let mut total = 0usize;
            for fid in m.func_ids() {
                let f = m.func(fid);
                if f.is_declaration() {
                    continue;
                }
                let cfg = Cfg::new(f);
                let dt = DomTree::new(f, &cfg);
                for l in LoopForest::new(f, &cfg, &dt).loops() {
                    total += invariants_llvm(&m, fid, l, &dt, &basic, &modref).len();
                    let g = builder.loop_pdg(fid, l);
                    total += invariants_noelle(f, l, &g).len();
                }
            }
            std::hint::black_box(total);
        }),
    );
}

fn bench_fig5_one_benchmark() {
    // One full Figure 5 cell: profile, parallelize with DOALL, re-run.
    report(
        "fig5_doall_blackscholes",
        median_micros(|| {
            let w = noelle_workloads::by_name("blackscholes").expect("exists");
            let mut m = w.build();
            let cfg = RunConfig {
                collect_profiles: true,
                ..RunConfig::default()
            };
            let seq = run_module(&m, "main", &[], &cfg).expect("runs");
            seq.profiles.embed(&mut m);
            let mut noelle = Noelle::new(m, AliasTier::Full);
            noelle_transforms::common::parallelize(
                &mut noelle,
                noelle_transforms::common::Parallelizer::Doall,
                &noelle_transforms::common::LoopTargetOpts {
                    min_hotness: 0.02,
                    workers: 4,
                },
            );
            let m2 = noelle.into_module();
            std::hint::black_box(
                run_module(&m2, "main", &[], &RunConfig::default())
                    .expect("parallel runs")
                    .cycles,
            );
        }),
    );
}

fn bench_simulator() {
    let m = sample();
    report(
        "simulator_sequential_run",
        median_micros(|| {
            std::hint::black_box(
                run_module(&m, "main", &[], &RunConfig::default())
                    .expect("runs")
                    .cycles,
            );
        }),
    );
}

fn main() {
    bench_fig3();
    bench_fig4();
    bench_fig5_one_benchmark();
    bench_simulator();
}
