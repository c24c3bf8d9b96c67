//! `noelle-prof-coverage`: execute the program on its training input
//! (simulated) and emit the collected profiles as JSON.

use noelle_runtime::{run_module, RunConfig};
use noelle_tools::{die, read_module, Args};

const USAGE: &str = "usage: noelle-prof-coverage <in.nir> [--entry main] [--o prof.json]";

fn main() {
    let args = Args::parse(&["entry", "o"], &[], USAGE);
    let Some(input) = args.positional.first() else {
        die(USAGE);
    };
    let m = read_module(input).unwrap_or_else(|e| die(&e));
    let cfg = RunConfig {
        collect_profiles: true,
        ..RunConfig::default()
    };
    let r = run_module(&m, args.flag_or("entry", "main"), &[], &cfg)
        .unwrap_or_else(|e| die(&e.to_string()));
    let json = r.profiles.to_json().to_string_pretty();
    match args.flag_or("o", "-") {
        "-" => println!("{json}"),
        path => std::fs::write(path, json).unwrap_or_else(|e| die(&e.to_string())),
    }
    eprintln!(
        "profiled {} dynamic instructions over {} cycles",
        r.dyn_insts, r.cycles
    );
}
