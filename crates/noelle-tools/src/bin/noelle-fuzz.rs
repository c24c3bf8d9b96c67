//! `noelle-fuzz`: differential fuzzing of the transform pipeline.
//!
//! Replays the persisted repro corpus, then generates fresh seed-driven
//! modules and runs every oracle on each: each transform preserves
//! observable behavior (return value, output trace, globals memory), every
//! runtime-observed memory dependence is covered by the static PDG, and the
//! store, audit, plan, incremental and race checks hold. Failing seeds are
//! persisted and minimized into the corpus directory.
//!
//! The engine lives in the `noelle-fuzz` crate; this binary only wires the
//! shared tool registry into it and parses flags.

use std::path::PathBuf;

use noelle_core::noelle::Noelle;
use noelle_fuzz::driver::{run_campaign, FuzzConfig};
use noelle_fuzz::oracle::{FuzzTool, PIPELINE};
use noelle_tools::registry::{self, ToolOptions};
use noelle_tools::{die, Args};
use noelle_transforms::LoopTargetOpts;

fn usage() -> String {
    format!(
        "usage: noelle-fuzz [--seeds N] [--seed-start N] [--time-budget-ms MS] \
         [--tool all|{}] [--corpus-dir DIR] [--no-persist] [--cores N]",
        registry::usage()
    )
}

fn selected_tools(selector: &str, cores: usize) -> Vec<FuzzTool> {
    let names: Vec<&str> = if selector == "all" {
        PIPELINE.to_vec()
    } else {
        selector.split(',').collect()
    };
    names
        .into_iter()
        .map(|name| {
            let entry = registry::tools()
                .iter()
                .find(|t| t.name == name)
                .unwrap_or_else(|| {
                    die(&format!(
                        "unknown tool '{name}' (expected 'all' or one of {})",
                        registry::usage()
                    ))
                });
            let run = entry.run;
            FuzzTool::new(entry.name, move |n: &mut Noelle| {
                run(n, &ToolOptions { cores: Some(cores) })
            })
        })
        .collect()
}

fn main() {
    let valued = [
        "seeds",
        "seed-start",
        "time-budget-ms",
        "tool",
        "corpus-dir",
        "cores",
    ];
    let args = Args::parse(&valued, &["no-persist", "help"], &usage());
    if args.flag("help").is_some() || !args.positional.is_empty() {
        die(&usage());
    }
    let cores = args.flag_usize("cores", LoopTargetOpts::default().workers);
    let tools = selected_tools(args.flag_or("tool", "all"), cores);
    let corpus_dir = args.flag("corpus-dir").map(PathBuf::from);
    let cfg = FuzzConfig {
        seeds: args.flag_usize("seeds", 100) as u64,
        seed_start: args.flag_usize("seed-start", 0) as u64,
        time_budget_ms: args.flag_usize_opt("time-budget-ms").map(|ms| ms as u64),
        persist: corpus_dir.is_some() && args.flag("no-persist").is_none(),
        corpus_dir,
        ..FuzzConfig::default()
    };

    let summary = run_campaign(&cfg, &tools);
    print!("{}", summary.render());
    if !summary.ok() {
        std::process::exit(1);
    }
}
