//! `noelle-linker`: link IR files while preserving NOELLE metadata (used
//! after parallelization to pull in runtime pieces).

use noelle_tools::{die, link_modules, read_module, write_module, Args};

const USAGE: &str = "usage: noelle-linker <a.nir> <b.nir> ... [--o out.nir]";

fn main() {
    let args = Args::parse(&["o"], &[], USAGE);
    if args.positional.len() < 2 {
        die(USAGE);
    }
    let mods: Vec<_> = args
        .positional
        .iter()
        .map(|p| read_module(p).unwrap_or_else(|e| die(&e)))
        .collect();
    let linked = link_modules(mods).unwrap_or_else(|e| die(&e));
    write_module(&linked, args.flag_or("o", "-")).unwrap_or_else(|e| die(&e));
}
