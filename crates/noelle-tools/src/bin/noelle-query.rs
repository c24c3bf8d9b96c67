//! `noelle-query`: a one-shot client for the `noelle-served` daemon.
//!
//! ```text
//! noelle-query <method> [--addr 127.0.0.1:7711] [--session NAME]
//!              [--path FILE|workload:NAME] [--tier basic|full]
//!              [--func NAME] [--loop N] [--tool NAME] [--cores N]
//!              [--deadline-ms N] [--compact]
//! ```
//!
//! Examples:
//!
//! ```text
//! noelle-query load --path workload:blackscholes --session bs
//! noelle-query pdg --session bs
//! noelle-query sccdag --session bs --func main --loop 0
//! noelle-query run-tool --session bs --tool doall --cores 8
//! noelle-query stats
//! noelle-query shutdown
//! ```

use noelle_core::json::Json;
use noelle_server::Client;
use noelle_tools::registry::ToolInvocation;
use noelle_tools::{die, Args};

const USAGE: &str = "usage: noelle-query <load|pdg|sccdag|loops|induction|invariants|callgraph|run-tool|stats|ping|shutdown> [--addr HOST:PORT] [--session NAME] [--path P] [--tier basic|full] [--func F] [--loop N] [--tool T] [--cores N] [--deadline-ms N] [--compact]";

fn main() {
    let valued = [
        "addr",
        "session",
        "path",
        "tier",
        "func",
        "loop",
        "tool",
        "cores",
        "deadline-ms",
    ];
    let args = Args::parse(&valued, &["compact"], USAGE);
    let Some(method) = args.positional.first() else {
        die(USAGE);
    };
    let addr = args.flag_or("addr", "127.0.0.1:7711");

    let mut params: Vec<(String, Json)> = Vec::new();
    for key in ["session", "path", "tier", "func"] {
        if let Some(v) = args.flag(key) {
            params.push((key.to_string(), Json::Str(v.to_string())));
        }
    }
    if let Some(n) = args.flag_usize_opt("loop") {
        let n = i64::try_from(n).unwrap_or(i64::MAX);
        params.push(("loop".to_string(), Json::Int(n)));
    }
    // Tool flags parse through the registry's own ToolInvocation, so
    // `noelle-query run-tool` and `noelle-load` accept identical options.
    if method == "run-tool" || args.flag("tool").is_some() {
        let inv =
            ToolInvocation::from_args(&args).unwrap_or_else(|e| die(&format!("{e}\n{USAGE}")));
        params.extend(inv.to_params());
    }
    let deadline = args.flag_usize_opt("deadline-ms").map(|ms| ms as u64);

    let mut client =
        Client::connect(addr).unwrap_or_else(|e| die(&format!("connect to {addr}: {e}")));
    let reply = client
        .request_with_deadline(method, Json::object(params), deadline)
        .unwrap_or_else(|e| die(&format!("request failed: {e}")));

    let text = if args.flag("compact").is_some() {
        reply.to_string_compact()
    } else {
        reply.to_string_pretty()
    };
    // Tolerate a closed stdout (`noelle-query stats | head`): a broken
    // pipe is how the reader says "enough", not an error.
    use std::io::Write;
    let _ = writeln!(std::io::stdout(), "{text}");
    if reply.get("error").is_some() {
        std::process::exit(2);
    }
}
