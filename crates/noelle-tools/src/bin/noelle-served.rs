//! `noelle-served`: the resident NOELLE analysis daemon.
//!
//! Keeps loaded modules' abstractions (PDG, call graph, loop structures,
//! alias-query cache) warm across requests, so many small custom tools and
//! editor integrations can query a module without re-analyzing it each
//! time. Listens on localhost TCP speaking length-prefixed JSON frames, or
//! on stdin/stdout with newline-delimited JSON under `--stdio`.
//!
//! ```text
//! noelle-served [--addr 127.0.0.1:7711] [--workers N] [--shards N]
//!               [--queue-cap N] [--max-sessions N] [--max-bytes N]
//!               [--deadline-ms N] [--stdio]
//! ```
//!
//! Everything the daemon keeps lives in its process: a restarted daemon
//! builds each loaded module's abstractions again, on demand.

use noelle_server::{Server, ServerConfig, ToolRunner};
use noelle_tools::registry::ToolInvocation;
use noelle_tools::{die, Args};
use std::sync::Arc;

const USAGE: &str = "usage: noelle-served [--addr 127.0.0.1:7711] [--workers N] [--shards N] \
    [--queue-cap N] [--max-sessions N] [--max-bytes N] [--deadline-ms N] [--stdio]";

fn main() {
    let valued = [
        "addr",
        "workers",
        "shards",
        "queue-cap",
        "max-sessions",
        "max-bytes",
        "deadline-ms",
    ];
    let args = Args::parse(&valued, &["stdio"], USAGE);
    // Every default is the library's but the address: the daemon listens
    // on its own well-known port, not on one the system picks.
    let lib = ServerConfig::default();
    let cfg = ServerConfig {
        addr: args.flag_or("addr", "127.0.0.1:7711").to_string(),
        workers: args.flag_usize("workers", lib.workers),
        shards: args.flag_usize("shards", lib.shards),
        queue_capacity: args.flag_usize("queue-cap", lib.queue_capacity),
        max_sessions: args.flag_usize("max-sessions", lib.max_sessions),
        max_bytes: args.flag_usize("max-bytes", lib.max_bytes),
        default_deadline_ms: args.flag_usize("deadline-ms", lib.default_deadline_ms as usize)
            as u64,
    };
    // The registry lives here, not in noelle-server, so the daemon crate
    // stays decoupled from the transforms; inject it. The server hands the
    // raw request params through; parsing them is the registry's job, so
    // every entry point accepts identical options.
    let runner: ToolRunner =
        Arc::new(|n, params| ToolInvocation::from_json(params).and_then(|inv| inv.run(n)));
    let server = Server::new(cfg).with_tool_runner(runner);

    if args.flag("stdio").is_some() {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        server
            .serve_stdio(&mut stdin.lock(), &mut stdout.lock())
            .unwrap_or_else(|e| die(&format!("stdio serve failed: {e}")));
        return;
    }

    let running = server
        .start()
        .unwrap_or_else(|e| die(&format!("bind failed: {e}")));
    eprintln!("noelle-served listening on {}", running.addr);
    running.join();
    eprintln!("noelle-served stopped");
}
