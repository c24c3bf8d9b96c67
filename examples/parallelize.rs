//! The paper's full compilation flow (Figure 1) on one benchmark:
//! profile -> embed -> parallelize with each technique -> simulate.
//!
//! Run with: `cargo run --example parallelize [workload] [cores]`

use noelle::core::noelle::{AliasTier, Noelle};
use noelle::runtime::{run_module, RunConfig};
use noelle::transforms as tools;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "streamcluster".into());
    let cores: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let w = noelle::workloads::by_name(&name).expect("known workload");
    println!("workload: {} ({} suite)", w.name, w.suite.name());

    // noelle-prof-coverage + noelle-meta-prof-embed.
    let mut module = w.build();
    let prof_cfg = RunConfig {
        collect_profiles: true,
        ..RunConfig::default()
    };
    let seq = run_module(&module, "main", &[], &prof_cfg).expect("baseline runs");
    seq.profiles.embed(&mut module);
    println!(
        "baseline: result = {:?}, cycles = {}",
        seq.ret_i64(),
        seq.cycles
    );

    for technique in ["doall", "helix", "dswp", "autopar"] {
        let (m2, parallelized) = match technique {
            "autopar" => {
                let (m2, r) = tools::baseline::conservative_parallelize(module.clone(), cores);
                (m2, r.count())
            }
            _ => {
                let mut n = Noelle::new(module.clone(), AliasTier::Full);
                let (tool, workers) = match technique {
                    "doall" => (tools::Parallelizer::Doall, cores),
                    "helix" => (tools::Parallelizer::Helix, cores),
                    _ => (tools::Parallelizer::Dswp, 2),
                };
                let target = tools::LoopTargetOpts {
                    min_hotness: 0.02,
                    workers,
                };
                let count = tools::parallelize(&mut n, tool, &target).count();
                (n.into_module(), count)
            }
        };
        let r = run_module(&m2, "main", &[], &RunConfig::default()).expect("runs");
        assert_eq!(r.ret_i64(), seq.ret_i64(), "{technique} broke the program");
        println!(
            "{technique:>8}: {parallelized} loop(s) parallelized, cycles = {:>8}, speedup = {:.2}x",
            r.cycles,
            seq.cycles as f64 / r.cycles as f64
        );
    }
}
