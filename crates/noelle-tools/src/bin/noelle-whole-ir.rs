//! `noelle-whole-ir`: link IR files (or `workload:<name>`) into one
//! whole-program module, mirroring the paper's gllvm-based tool.

use noelle_tools::{die, link_modules, read_module, write_module, Args};

const USAGE: &str = "usage: noelle-whole-ir <inputs...> [--o out.nir]";

fn main() {
    let args = Args::parse(&["o"], &[], USAGE);
    if args.positional.is_empty() {
        die(USAGE);
    }
    let mut mods = Vec::new();
    for p in &args.positional {
        match read_module(p) {
            Ok(m) => mods.push(m),
            Err(e) => die(&e),
        }
    }
    match link_modules(mods) {
        Ok(linked) => {
            if let Err(e) = write_module(&linked, args.flag_or("o", "-")) {
                die(&e);
            }
        }
        Err(e) => die(&e),
    }
}
