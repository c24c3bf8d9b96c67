//! `noelle-load`: load the NOELLE layer over an IR file and run a custom
//! tool. Prints the abstractions the tool requested (Table 4's evidence).
//!
//! Tool dispatch goes through [`noelle_tools::registry`], the same table
//! the `noelle-served` daemon uses for its `run-tool` method.

use noelle_core::noelle::{AliasTier, Noelle};
use noelle_tools::registry::{self, ToolInvocation};
use noelle_tools::{die, read_module, write_module, Args};

fn main() {
    let usage = format!(
        "usage: noelle-load <in.nir> --tool <{}> [--cores N] [--o out.nir]",
        registry::usage()
    );
    let args = Args::parse(&["tool", "cores", "o"], &[], &usage);
    let Some(input) = args.positional.first() else {
        die(&usage);
    };
    let inv = ToolInvocation::from_args(&args).unwrap_or_else(|e| die(&format!("{e}\n{usage}")));
    let m = read_module(input).unwrap_or_else(|e| die(&e));
    let mut noelle = Noelle::new(m, AliasTier::Full);
    let summary = inv.run(&mut noelle).unwrap_or_else(|e| die(&e));
    eprintln!("{summary}");
    let requested: Vec<&str> = noelle.requested().iter().map(|a| a.short_name()).collect();
    eprintln!("abstractions requested: {}", requested.join(", "));
    write_module(&noelle.into_module(), args.flag_or("o", "-")).unwrap_or_else(|e| die(&e));
}
