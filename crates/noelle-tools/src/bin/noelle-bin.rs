//! `noelle-bin`: "generate a standalone binary" — in this reproduction, run
//! the program on the simulated machine and report its result, cycle count,
//! and runtime counters.

use noelle_core::architecture::Architecture;
use noelle_runtime::{run_module, RunConfig};
use noelle_tools::{die, read_module, Args};

const USAGE: &str = "usage: noelle-bin <in.nir> [--entry main] [--cores N]";

fn main() {
    let args = Args::parse(&["entry", "cores"], &[], USAGE);
    let Some(input) = args.positional.first() else {
        die(USAGE);
    };
    let m = read_module(input).unwrap_or_else(|e| die(&e));
    let arch = Architecture::from_module(&m)
        .unwrap_or_else(|| Architecture::synthetic(args.flag_positive("cores", 12), 1));
    let cfg = RunConfig {
        arch,
        ..RunConfig::default()
    };
    let r = run_module(&m, args.flag_or("entry", "main"), &[], &cfg)
        .unwrap_or_else(|e| die(&e.to_string()));
    for line in &r.output {
        println!("{line}");
    }
    eprintln!(
        "result = {:?}  cycles = {}  dynamic instructions = {}",
        r.ret, r.cycles, r.dyn_insts
    );
    for (k, v) in &r.counters {
        eprintln!("  {k} = {v}");
    }
}
