//! `noelle-meta-clean`: strip all NOELLE-generated metadata from an IR file.

use noelle_tools::{die, read_module, write_module, Args};

const USAGE: &str = "usage: noelle-meta-clean <in.nir> [--o out.nir]";

fn main() {
    let args = Args::parse(&["o"], &[], USAGE);
    let Some(input) = args.positional.first() else {
        die(USAGE);
    };
    let mut m = read_module(input).unwrap_or_else(|e| die(&e));
    noelle_ir::ids::clean_noelle_metadata(&mut m);
    write_module(&m, args.flag_or("o", "-")).unwrap_or_else(|e| die(&e));
}
