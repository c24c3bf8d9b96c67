//! `noelle-rm-lc-dependences`: transform loops to remove as many
//! loop-carried data dependences as possible — here by hoisting invariant
//! computations (whose recomputation every iteration shows up as carried
//! chains downstream) out of hot loops.

use noelle_core::noelle::{AliasTier, Noelle};
use noelle_tools::{die, read_module, write_module, Args};

const USAGE: &str = "usage: noelle-rm-lc-dependences <in.nir> [--o out.nir]";

fn main() {
    let args = Args::parse(&["o"], &[], USAGE);
    let Some(input) = args.positional.first() else {
        die(USAGE);
    };
    let m = read_module(input).unwrap_or_else(|e| die(&e));
    let mut noelle = Noelle::new(m, AliasTier::Full);
    let report = noelle_transforms::licm::run(&mut noelle);
    eprintln!("hoisted {} invariant instructions", report.hoisted);
    write_module(&noelle.into_module(), args.flag_or("o", "-")).unwrap_or_else(|e| die(&e));
}
