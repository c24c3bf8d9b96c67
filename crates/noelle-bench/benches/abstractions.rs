//! Benchmarks of the infrastructure costs: how long each NOELLE abstraction
//! takes to compute over representative workloads. These are the
//! compile-time costs the demand-driven design avoids paying eagerly.
//!
//! Plain `std::time` harness (harness = false; the registry is offline, so
//! no criterion): each measurement reports the median of `SAMPLES` runs.

use noelle_analysis::alias::{AliasAnalysis, AliasStack, AndersenAlias, BasicAlias};
use noelle_core::noelle::{AliasTier, Noelle};
use noelle_ir::cfg::Cfg;
use noelle_ir::dom::{DomTree, PostDomTree};
use noelle_ir::loops::LoopForest;
use noelle_pdg::pdg::PdgBuilder;
use noelle_pdg::sccdag::SccDag;
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
    println!("{name:<48} {micros:>12.1} us");
}

fn representative() -> Vec<noelle_workloads::Workload> {
    ["blackscholes", "crc32", "ferret"]
        .iter()
        .map(|n| noelle_workloads::by_name(n).expect("exists"))
        .collect()
}

fn bench_alias() {
    for w in representative() {
        let m = w.build();
        report(
            &format!("alias/andersen/{}", w.name),
            median_micros(|| {
                std::hint::black_box(AndersenAlias::new(&m));
            }),
        );
    }
}

fn bench_pdg() {
    for w in representative() {
        let m = w.build();
        {
            let basic = BasicAlias::new(&m);
            let builder = PdgBuilder::new(&m, &basic);
            report(
                &format!("pdg/program_pdg_basic/{}", w.name),
                median_micros(|| {
                    std::hint::black_box(builder.program_pdg());
                }),
            );
        }
        {
            let basic = BasicAlias::new(&m);
            let andersen = AndersenAlias::new(&m);
            let tiers = [&basic as &dyn AliasAnalysis, &andersen];
            let stack = AliasStack::new(&tiers);
            let builder = PdgBuilder::new(&m, &stack);
            report(
                &format!("pdg/program_pdg_full/{}", w.name),
                median_micros(|| {
                    std::hint::black_box(builder.program_pdg());
                }),
            );
        }
    }
}

fn bench_loop_views() {
    let w = noelle_workloads::by_name("blackscholes").expect("exists");
    let m = w.build();
    let fid = m.func_id_by_name("kernel0").expect("kernel exists");
    let f = m.func(fid);
    report(
        "loop_views/cfg+domtrees",
        median_micros(|| {
            let cfg = Cfg::new(f);
            let dt = DomTree::new(f, &cfg);
            let pdt = PostDomTree::new(f, &cfg);
            std::hint::black_box((dt, pdt));
        }),
    );
    {
        let cfg = Cfg::new(f);
        let dt = DomTree::new(f, &cfg);
        report(
            "loop_views/loop_forest",
            median_micros(|| {
                std::hint::black_box(LoopForest::new(f, &cfg, &dt));
            }),
        );
    }
    {
        let basic = BasicAlias::new(&m);
        let builder = PdgBuilder::new(&m, &basic);
        let cfg = Cfg::new(f);
        let dt = DomTree::new(f, &cfg);
        let forest = LoopForest::new(f, &cfg, &dt);
        let l = forest.loops()[0].clone();
        let pdg = builder.loop_pdg(fid, &l);
        let recs = noelle_analysis::scev::affine_recurrences(f, &l);
        report(
            "loop_views/sccdag",
            median_micros(|| {
                std::hint::black_box(SccDag::new(f, &l, &pdg, &recs));
            }),
        );
    }
}

fn bench_demand_driven() {
    // The paper's design claim: loading the layer is free; abstractions cost
    // only when requested.
    let w = noelle_workloads::by_name("blackscholes").expect("exists");
    report(
        "demand_driven/noelle_load_only",
        median_micros(|| {
            std::hint::black_box(Noelle::new(w.build(), AliasTier::Full));
        }),
    );
    report(
        "demand_driven/noelle_one_loop_abstraction",
        median_micros(|| {
            let mut n = Noelle::new(w.build(), AliasTier::Full);
            let fid = n.module().func_id_by_name("kernel0").expect("exists");
            let l = n.loops_of(fid)[0].clone();
            std::hint::black_box(n.loop_abstraction(fid, l));
        }),
    );
}

fn main() {
    bench_alias();
    bench_pdg();
    bench_loop_views();
    bench_demand_driven();
}
