//! `noelle-arch`: describe the (simulated) machine — cores, NUMA nodes,
//! core-to-core latencies — and embed it for AR consumers such as HELIX.

use noelle_core::architecture::Architecture;
use noelle_tools::{die, read_module, write_module, Args};

const USAGE: &str = "usage: noelle-arch [in.nir] [--cores N] [--numa N] [--o out.nir]";

fn main() {
    let args = Args::parse(&["cores", "numa", "o"], &[], USAGE);
    let (cores, numa) = (
        args.flag_positive("cores", 12),
        args.flag_positive("numa", 1),
    );
    let arch = Architecture::synthetic(cores, numa);
    match args.positional.first() {
        Some(input) => {
            let mut m = read_module(input).unwrap_or_else(|e| die(&e));
            arch.embed(&mut m);
            write_module(&m, args.flag_or("o", "-")).unwrap_or_else(|e| die(&e));
        }
        None => {
            println!("{}", arch.to_json().to_string_pretty());
        }
    }
}
