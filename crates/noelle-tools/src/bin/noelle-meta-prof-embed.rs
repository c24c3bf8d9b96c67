//! `noelle-meta-prof-embed`: embed a profile JSON file into the IR as
//! metadata so the PRO abstraction can answer hotness queries offline.

use noelle_core::profiler::Profiles;
use noelle_tools::{die, read_module, write_module, Args};

const USAGE: &str = "usage: noelle-meta-prof-embed <in.nir> <prof.json> [--o out.nir]";

fn main() {
    let args = Args::parse(&["o"], &[], USAGE);
    let (Some(input), Some(prof)) = (args.positional.first(), args.positional.get(1)) else {
        die(USAGE);
    };
    let mut m = read_module(input).unwrap_or_else(|e| die(&e));
    let text = std::fs::read_to_string(prof).unwrap_or_else(|e| die(&e.to_string()));
    let json = noelle_core::json::Json::parse(&text).unwrap_or_else(|| die("invalid profile JSON"));
    let profiles = Profiles::from_json(&json).unwrap_or_else(|| die("malformed profile JSON"));
    profiles.embed(&mut m);
    write_module(&m, args.flag_or("o", "-")).unwrap_or_else(|e| die(&e));
}
