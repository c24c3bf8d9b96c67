//! End-to-end protocol tests for the `noelle-server` daemon: concurrent
//! queries coalesce into one build, replies match a direct in-process
//! build byte-for-byte, deadlines produce timeout errors instead of hung
//! connections, shutdown drains in-flight work, pipelined replies come back
//! in request order, `--stdio` mode speaks newline-delimited JSON, one
//! `stats` reply reports every counter once, and an overloaded shard sheds
//! with structured `overloaded` errors instead of unbounded queueing.

use noelle::core::json::Json;
use noelle::core::noelle::{AliasTier, Noelle};
use noelle::core::wire;
use noelle_server::protocol::Request;
use noelle_server::server::run_request_text;
use noelle_server::{Client, RunningServer, Server, ServerConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Cursor;
use std::sync::atomic::{AtomicBool, Ordering};

fn start_server(workers: usize) -> RunningServer {
    Server::new(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        ..ServerConfig::default()
    })
    .start()
    .expect("bind ephemeral port")
}

/// A server wired to the real `noelle-tools` registry, as `noelle-served`
/// builds it.
fn start_server_with_tools(workers: usize) -> RunningServer {
    let runner: noelle_server::ToolRunner = std::sync::Arc::new(|n, params| {
        noelle_tools::registry::ToolInvocation::from_json(params).and_then(|inv| inv.run(n))
    });
    Server::new(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        ..ServerConfig::default()
    })
    .with_tool_runner(runner)
    .start()
    .expect("bind ephemeral port")
}

fn load(client: &mut Client, path: &str, session: &str) {
    let ok = client
        .call(
            "load",
            Json::object([
                ("path".to_string(), Json::Str(path.into())),
                ("session".to_string(), Json::Str(session.into())),
            ]),
        )
        .expect("load succeeds");
    assert_eq!(ok.get("session").and_then(Json::as_str), Some(session));
}

fn sess(name: &str) -> Json {
    Json::object([("session".to_string(), Json::Str(name.into()))])
}

#[test]
fn concurrent_pdg_queries_coalesce_and_match_in_process_build() {
    let server = start_server(4);
    let addr = server.addr.to_string();

    let mut c = Client::connect(&addr).expect("connect");
    load(&mut c, "workload:blackscholes", "bs");

    // Fire N identical queries from concurrent clients.
    const N: usize = 4;
    let replies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut c = Client::connect(&addr).expect("connect");
                    let ok = c
                        .call(
                            "pdg",
                            Json::object([("session".to_string(), Json::Str("bs".into()))]),
                        )
                        .expect("pdg succeeds");
                    ok.to_string_compact()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });

    // (a) All replies identical to each other and to a direct build.
    let w = noelle::workloads::by_name("blackscholes").expect("workload");
    let mut direct = Noelle::new(w.build(), AliasTier::Full);
    let expected = wire::pdg_to_json(&direct.module().clone(), &direct.pdg()).to_string_compact();
    for r in &replies {
        assert_eq!(*r, expected, "daemon reply diverges from in-process build");
    }

    // (b) The session's manager built each function's partition exactly
    // once: the N racing requests coalesced behind the per-session build
    // lock.
    let partitions = direct.pdg().per_function.len() as i64;
    let stats = c.call("stats", Json::object([])).expect("stats");
    let builds = stats
        .get("table")
        .and_then(|t| t.get("sessions"))
        .and_then(|s| s.get("bs"))
        .and_then(|s| s.get("builds"))
        .and_then(|b| b.get("PDG"))
        .and_then(|p| p.get("builds"))
        .and_then(Json::as_i64);
    assert_eq!(
        builds,
        Some(partitions),
        "one build per partition for {N} queries"
    );

    // The per-method counters saw all N queries.
    let pdg_count = stats
        .get("requests")
        .and_then(|r| r.get("pdg"))
        .and_then(|p| p.get("count"))
        .and_then(Json::as_i64);
    assert_eq!(pdg_count, Some(N as i64));

    let reply = c.request("shutdown", Json::object([])).expect("shutdown");
    assert!(reply.get("ok").is_some());
    server.join();
}

#[test]
fn deadline_times_out_then_warm_cache_answers() {
    let server = start_server(2);
    let addr = server.addr.to_string();
    let mut c = Client::connect(&addr).expect("connect");
    load(&mut c, "workload:pdg_stress", "hot");

    // A zero deadline cannot be met: the reply must be a timeout error,
    // not a hung connection.
    let reply = c
        .request_with_deadline(
            "pdg",
            Json::object([("session".to_string(), Json::Str("hot".into()))]),
            Some(0),
        )
        .expect("a reply frame arrives");
    let code = reply
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str);
    assert_eq!(code, Some("timeout"));

    // The abandoned build keeps running and warms the cache: a patient
    // retry succeeds and the manager reports a single build.
    let ok = c
        .call(
            "pdg",
            Json::object([("session".to_string(), Json::Str("hot".into()))]),
        )
        .expect("retry succeeds");
    assert!(ok.get("num_edges").and_then(Json::as_i64).unwrap() > 0);

    let stats = c.call("stats", Json::object([])).expect("stats");
    let timeouts = stats
        .get("requests")
        .and_then(|r| r.get("pdg"))
        .and_then(|p| p.get("timeouts"))
        .and_then(Json::as_i64);
    assert_eq!(timeouts, Some(1));
    let builds = stats
        .get("table")
        .and_then(|t| t.get("sessions"))
        .and_then(|s| s.get("hot"))
        .and_then(|s| s.get("builds"))
        .and_then(|b| b.get("PDG"))
        .and_then(|p| p.get("builds"))
        .and_then(Json::as_i64);
    let partitions = noelle::workloads::pdg_stress()
        .build()
        .functions()
        .iter()
        .filter(|f| !f.is_declaration())
        .count() as i64;
    assert_eq!(
        builds,
        Some(partitions),
        "timed-out build still completed, each partition once"
    );

    server.shutdown_and_join();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    // One worker: the shutdown request queues *behind* the in-flight pdg
    // build, so a full drain must answer both.
    let server = start_server(1);
    let addr = server.addr.to_string();
    let mut c = Client::connect(&addr).expect("connect");
    load(&mut c, "workload:pdg_stress", "s");

    let pdg_thread = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).expect("connect");
            c.call(
                "pdg",
                Json::object([("session".to_string(), Json::Str("s".into()))]),
            )
        })
    };
    // Give the pdg request a head start into the single worker.
    std::thread::sleep(std::time::Duration::from_millis(30));
    let reply = c
        .request("shutdown", Json::object([]))
        .expect("shutdown reply");
    assert!(reply.get("ok").is_some());

    let pdg = pdg_thread
        .join()
        .expect("join")
        .expect("pdg drained, not dropped");
    assert!(pdg.get("num_edges").and_then(Json::as_i64).unwrap() > 0);
    server.join();

    // The daemon is gone: new connections are refused.
    assert!(Client::connect(&addr).is_err());
}

#[test]
fn pipelined_replies_come_back_in_request_order() {
    // Several workers, so replies to one connection's requests finish out
    // of order inside the daemon: a cold `pdg` of the stress workload is
    // followed by cheap `stats` and `loops` requests that overtake it.
    let server = start_server(4);
    let mut c = Client::connect(&server.addr.to_string()).expect("connect");
    load(&mut c, "workload:pdg_stress", "s");
    let sess = || Json::object([("session".to_string(), Json::Str("s".into()))]);
    // Kept under the server's per-connection admission depth so nothing is
    // shed.
    let ids: Vec<i64> = (0..48)
        .map(|i| match i % 4 {
            0 | 1 => c.send("pdg", sess()),
            2 => c.send("loops", sess()),
            _ => c.send("stats", Json::object([])),
        })
        .collect::<Result<_, _>>()
        .expect("send");
    for id in ids {
        let reply = c.recv_text().expect("pipelined reply");
        assert!(
            reply.starts_with(&format!("{{\"id\":{id},\"ok\":")),
            "replies must come back in request order: {}",
            &reply[..reply.len().min(80)]
        );
    }
    server.shutdown_and_join();
}

#[test]
fn sessions_are_isolated_and_queries_cover_every_method() {
    let server = start_server(4);
    let addr = server.addr.to_string();
    let mut c = Client::connect(&addr).expect("connect");
    load(&mut c, "workload:blackscholes", "a");
    load(&mut c, "workload:crc32", "b");

    let sess = |name: &str| Json::object([("session".to_string(), Json::Str(name.into()))]);

    let loops = c.call("loops", sess("a")).expect("loops");
    let main_loops = loops.get("main").and_then(Json::as_array).expect("main");
    assert!(!main_loops.is_empty());

    let with_loop = |name: &str, func: &str| {
        Json::object([
            ("session".to_string(), Json::Str(name.into())),
            ("func".to_string(), Json::Str(func.into())),
            ("loop".to_string(), Json::Int(0)),
        ])
    };
    let dag = c.call("sccdag", with_loop("a", "main")).expect("sccdag");
    assert!(dag.get("nodes").and_then(Json::as_array).is_some());
    let ivs = c.call("induction", with_loop("a", "main")).expect("ivs");
    assert!(ivs.as_array().is_some());
    let inv = c
        .call("invariants", with_loop("a", "main"))
        .expect("invariants");
    assert!(inv.as_array().is_some());
    let cg = c.call("callgraph", sess("a")).expect("callgraph");
    assert!(!cg.get("edges").and_then(Json::as_array).unwrap().is_empty());

    let stats = c.call("stats", Json::object([])).expect("stats");
    assert_eq!(
        stats
            .get("table")
            .and_then(|t| t.get("count"))
            .and_then(Json::as_i64),
        Some(2)
    );

    // Unknown method and missing session produce typed errors.
    let err = c.request("nope", Json::object([])).expect("reply");
    assert_eq!(
        err.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("unknown_method")
    );
    let err = c.request("pdg", sess("ghost")).expect("reply");
    assert_eq!(
        err.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("no_session")
    );
    // A synthetic module is built in the daemon's memory: a size beyond
    // the design limit is refused, by `load` and by `ide/open` alike, with
    // a message that names the limit.
    let path = |p: &str| Json::object([("path".to_string(), Json::Str(p.into()))]);
    for method in ["load", "ide/open"] {
        let reply = c.request(method, path("workload:scale:1000000000000"));
        let reply = reply.expect("reply");
        let err = reply.get("error").expect("refused");
        assert_eq!(err.get("code").and_then(Json::as_str), Some("bad_request"));
        let message = err.get("message").and_then(Json::as_str).expect("message");
        assert!(message.contains("100000"), "{method}: {message}");
    }

    server.shutdown_and_join();
}

#[test]
fn stdio_mode_answers_line_delimited_requests() {
    let input = concat!(
        r#"{"id":1,"method":"load","params":{"path":"workload:blackscholes","session":"s"}}"#,
        "\n",
        r#"{"id":2,"method":"stats","params":{}}"#,
        "\n",
        "not json\n",
        r#"{"id":3,"method":"shutdown","params":{}}"#,
        "\n",
    );
    let mut out = Vec::new();
    Server::new(ServerConfig::default())
        .serve_stdio(&mut Cursor::new(input), &mut out)
        .expect("stdio serve");
    let lines: Vec<Json> = String::from_utf8(out)
        .expect("utf8")
        .lines()
        .map(|l| Json::parse(l).expect("each reply line is one JSON value"))
        .collect();
    assert_eq!(lines.len(), 4);
    assert_eq!(lines[0].get("id").and_then(Json::as_i64), Some(1));
    assert!(lines[0].get("ok").is_some());
    assert!(lines[1].get("ok").is_some());
    assert!(
        lines[2].get("error").is_some(),
        "bad line gets an error reply"
    );
    assert!(lines[3].get("ok").is_some(), "shutdown acknowledged");
}

/// A line that is not UTF-8 draws a `bad_request` and the daemon reads on:
/// the next request is answered.
#[test]
fn a_line_that_is_not_utf8_is_a_bad_request_not_the_end() {
    let input = b"{\"id\":1,\"method\":\"ping\"}\n\xff\xfe\n{\"id\":2,\"method\":\"ping\"}\n";
    let mut out = Vec::new();
    Server::new(ServerConfig::default())
        .serve_stdio(&mut Cursor::new(&input[..]), &mut out)
        .expect("stdio serve");
    let text = String::from_utf8(out).expect("utf8");
    let replies: Vec<Json> = (text.lines())
        .map(|l| Json::parse(l).expect("each reply line is one JSON value"))
        .collect();
    assert_eq!(replies.len(), 3, "{text}");
    assert_eq!(replies[0].get("id").and_then(Json::as_i64), Some(1));
    assert!(replies[0].get("ok").is_some(), "{text}");
    let code = replies[1].get("error").and_then(|e| e.get("code"));
    assert_eq!(code.and_then(Json::as_str), Some("bad_request"), "{text}");
    assert_eq!(replies[1].get("id").and_then(Json::as_i64), Some(0));
    assert_eq!(replies[2].get("id").and_then(Json::as_i64), Some(2));
    assert!(replies[2].get("ok").is_some(), "{text}");
}

/// The replies of a `--stdio` daemon to `requests`, one per request.
fn stdio_replies(requests: &[String]) -> Vec<Json> {
    let mut input = requests.join("\n");
    input.push('\n');
    let mut out = Vec::new();
    Server::new(ServerConfig::default())
        .serve_stdio(&mut Cursor::new(input), &mut out)
        .expect("stdio serve");
    let text = String::from_utf8(out).expect("utf8");
    let replies: Vec<Json> = (text.lines())
        .map(|l| Json::parse(l).expect("each reply line is one JSON value"))
        .collect();
    assert_eq!(replies.len(), requests.len(), "{text}");
    replies
}

#[test]
fn what_the_client_got_wrong_is_a_bad_request() {
    // A module or document the client names that does not exist or does
    // not parse is the client's error; `internal` is left for a tool that
    // fails under `run-tool`.
    let not_nir = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
    let table = [
        ("load", r#"{"path":"workload:nope"}"#.to_string()),
        ("load", r#"{"path":"workload:scale:abc"}"#.to_string()),
        ("load", r#"{"path":"/nonexistent.nir"}"#.to_string()),
        ("load", format!(r#"{{"path":"{not_nir}"}}"#)),
        ("ide/open", "{}".to_string()),
    ];
    let requests: Vec<String> = (table.iter().enumerate())
        .map(|(i, (method, params))| {
            format!(r#"{{"id":{i},"method":"{method}","params":{params}}}"#)
        })
        .collect();
    for (request, reply) in requests.iter().zip(stdio_replies(&requests)) {
        let code = reply.get("error").and_then(|e| e.get("code"));
        assert_eq!(
            code.and_then(Json::as_str),
            Some("bad_request"),
            "{request} -> {reply:?}"
        );
    }
}

#[test]
fn a_sessions_footprint_is_what_its_manager_holds() {
    // After `audit` built the partitions and the points-to rows, and again
    // after `pdg`, the session's bytes are its load estimate plus what its
    // manager measures it holds: nothing built goes uncounted, nothing is
    // counted twice.
    let request = |id: usize, method: &str, params: &str| {
        format!(r#"{{"id":{id},"method":"{method}","params":{params}}}"#)
    };
    let s = r#"{"session":"s"}"#;
    let replies = stdio_replies(&[
        request(
            1,
            "load",
            r#"{"path":"workload:blackscholes","session":"s"}"#,
        ),
        request(2, "audit", s),
        request(3, "stats", "{}"),
        request(4, "pdg", s),
        request(5, "stats", "{}"),
    ]);
    let int = |v: &Json, path: &[&str]| {
        let at = path.iter().try_fold(v, |v, k| v.get(k));
        at.and_then(Json::as_i64)
            .unwrap_or_else(|| panic!("no {path:?} in {v:?}"))
    };
    let loaded = int(&replies[0], &["ok", "approx_bytes"]);
    for stats in [&replies[2], &replies[4]] {
        let row = &["ok", "table", "sessions", "s"];
        let at = |rest: &[&str]| int(stats, &[row.as_slice(), rest].concat());
        let held = at(&["memory", "pdg_bytes"]) + at(&["memory", "andersen_bytes"]);
        assert!(held > 0, "the audit built nothing: {stats:?}");
        assert_eq!(at(&["approx_bytes"]), loaded + held, "{stats:?}");
    }
}

#[test]
fn protocol_version_mismatch_is_a_typed_error() {
    use noelle_server::protocol::PROTOCOL_VERSION;
    // A client speaking a wrong protocol version gets a structured
    // `version_mismatch` error; a version-1 client (no "v" field) and a
    // current client are both served. Every reply carries the daemon's
    // own version.
    let input = concat!(
        r#"{"id":1,"method":"ping","params":{},"v":99}"#,
        "\n",
        r#"{"id":2,"method":"ping","params":{}}"#,
        "\n",
        r#"{"id":3,"method":"ping","params":{},"v":2}"#,
        "\n",
        r#"{"id":4,"method":"shutdown","params":{}}"#,
        "\n",
    );
    let mut out = Vec::new();
    Server::new(ServerConfig::default())
        .serve_stdio(&mut Cursor::new(input), &mut out)
        .expect("stdio serve");
    let lines: Vec<Json> = String::from_utf8(out)
        .expect("utf8")
        .lines()
        .map(|l| Json::parse(l).expect("reply line"))
        .collect();
    assert_eq!(lines.len(), 4);
    assert_eq!(
        lines[0]
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("version_mismatch"),
        "wrong version is rejected with a typed error: {:?}",
        lines[0]
    );
    assert!(
        lines[0]
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .is_some_and(|m| m.contains("v99")),
        "the error names the offending version"
    );
    assert!(lines[1].get("ok").is_some(), "unversioned (v1) accepted");
    assert!(lines[2].get("ok").is_some(), "current version accepted");
    for l in &lines {
        assert_eq!(
            l.get("v").and_then(Json::as_i64),
            Some(PROTOCOL_VERSION),
            "every reply carries the daemon's protocol version"
        );
    }
}

#[test]
fn run_tool_reuses_function_cache_across_queries() {
    let server = start_server_with_tools(2);
    let addr = server.addr.to_string();
    let mut c = Client::connect(&addr).expect("connect");
    load(&mut c, "workload:blackscholes", "warm");

    let sess = Json::object([("session".to_string(), Json::Str("warm".into()))]);
    // Build the PDG, run a transform (which edits through `Noelle::edit`),
    // then query the PDG again: the session's warm manager must repair
    // incrementally, reusing every untouched function's partition.
    let ok = c.call("pdg", sess.clone()).expect("first pdg");
    assert!(ok.get("num_edges").and_then(Json::as_i64).unwrap() > 0);
    let ran = c
        .call(
            "run-tool",
            Json::object([
                ("session".to_string(), Json::Str("warm".into())),
                ("tool".to_string(), Json::Str("licm".into())),
            ]),
        )
        .expect("run-tool licm");
    assert_eq!(ran.get("tool").and_then(Json::as_str), Some("licm"));
    let ok = c.call("pdg", sess).expect("second pdg");
    assert!(ok.get("num_edges").and_then(Json::as_i64).unwrap() > 0);

    let stats = c.call("stats", Json::object([])).expect("stats");
    let cache = stats
        .get("table")
        .and_then(|t| t.get("sessions"))
        .and_then(|s| s.get("warm"))
        .and_then(|s| s.get("func_cache"))
        .expect("per-session func_cache counters");
    let hits = cache.get("pdg_hits").and_then(Json::as_i64).unwrap();
    let invalidations = cache.get("invalidations").and_then(Json::as_i64).unwrap();
    assert!(
        hits > 0,
        "run-tool then pdg must reuse untouched partitions: {stats:?}"
    );
    assert!(
        invalidations > 0,
        "the tool's edit must have invalidated its touched functions"
    );

    server.shutdown_and_join();
}

#[test]
fn lint_method_reports_races_from_a_cached_session() {
    let server = start_server(2);
    let addr = server.addr.to_string();
    let mut c = Client::connect(&addr).expect("connect");

    let racy = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus")
        .join("lint")
        .join("racy_task.nir");
    load(&mut c, racy.to_str().expect("utf8 path"), "racy");

    let report = c
        .call(
            "lint",
            Json::object([
                ("session".to_string(), Json::Str("racy".into())),
                ("check".to_string(), Json::Str("races".into())),
            ]),
        )
        .expect("lint succeeds");
    let errors = report
        .get("summary")
        .and_then(|s| s.get("errors"))
        .and_then(Json::as_i64);
    assert_eq!(
        errors,
        Some(1),
        "racy corpus has exactly one race: {report:?}"
    );
    let findings = report
        .get("findings")
        .and_then(Json::as_array)
        .expect("findings");
    assert_eq!(findings.len(), 1);
    assert_eq!(
        findings[0].get("code").and_then(Json::as_str),
        Some("NL0001")
    );

    // Unknown check names come back as a typed bad_request, not a hang.
    let err = c
        .request(
            "lint",
            Json::object([
                ("session".to_string(), Json::Str("racy".into())),
                ("check".to_string(), Json::Str("bogus".into())),
            ]),
        )
        .expect("reply");
    assert_eq!(
        err.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("bad_request")
    );

    server.shutdown_and_join();
}

#[test]
fn unknown_methods_share_one_metrics_entry() {
    // A client names the method, so the daemon keeps a metrics entry only
    // for the methods it serves and counts every other name under
    // `unknown`: N made-up names, inline, routed to a shard and under the
    // IDE prefix, add one key to the `requests` table.
    let server = start_server(2);
    let mut c = Client::connect(&server.addr.to_string()).expect("connect");
    let requests = |c: &mut Client| {
        let stats = c.call("stats", Json::object([])).expect("stats");
        stats.get("requests").expect("requests").clone()
    };
    requests(&mut c);
    let before = requests(&mut c);
    const N: usize = 24;
    for i in 0..N {
        let (method, params) = match i % 3 {
            0 => (format!("made-up-{i}"), Json::object([])),
            1 => (
                format!("routed-{i}"),
                Json::object([("session".to_string(), Json::Str("s".into()))]),
            ),
            _ => (format!("ide/made-up-{i}"), Json::object([])),
        };
        let reply = c.request(&method, params).expect("reply");
        assert_eq!(
            reply
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("unknown_method"),
            "{method}: {reply:?}"
        );
    }
    let after = requests(&mut c);
    let keys = |v: &Json| v.as_object().map_or(0, |o| o.len());
    assert_eq!(keys(&after), keys(&before) + 1, "{before:?} -> {after:?}");
    let unknown = after.get("unknown").and_then(|m| m.get("count"));
    assert_eq!(unknown.and_then(Json::as_i64), Some(N as i64), "{after:?}");
    server.shutdown_and_join();
}

/// Every key path of the `stats` reply to this test's requests that a
/// client read before the reply carried `requests` and the managers'
/// `builds` and `memory`. Each must still be there.
const STATS_PATHS: &[&str] = &[
    "audit.blockers",
    "audit.loops",
    "audit.parallelizable",
    "audit.runs",
    "ide.changes",
    "ide.closes",
    "ide.diag_pushes",
    "ide.full_reparses",
    "ide.incremental_reparses",
    "ide.open_docs",
    "ide.opens",
    "ide.parse_failures",
    "ide.reaudited_functions",
    "ide.relinted_functions",
    "plan.loops",
    "plan.planned",
    "plan.runs",
    "protocol_version",
    "shards[0].evictions",
    "shards[0].queue_capacity",
    "shards[0].queue_depth",
    "shards[0].sessions",
    "shards[0].shed",
    "shards[1].evictions",
    "shards[1].queue_capacity",
    "shards[1].queue_depth",
    "shards[1].sessions",
    "shards[1].shed",
    "table.count",
    "table.evictions",
    "table.max_bytes",
    "table.max_entries",
    "table.sessions.bs.approx_bytes",
    "table.sessions.bs.func_cache.invalidations",
    "table.sessions.bs.func_cache.pdg_hits",
    "table.sessions.bs.func_cache.pdg_misses",
    "table.sessions.bs.func_cache.struct_hits",
    "table.sessions.bs.func_cache.struct_misses",
    "table.sessions.bs.functions",
    "uptime_ms",
];

/// The key paths of `v`'s scalar leaves (`null` included).
fn leaf_paths(v: &Json, at: &str, out: &mut BTreeSet<String>) {
    let join = |k: &str| {
        if at.is_empty() {
            k.to_string()
        } else {
            format!("{at}.{k}")
        }
    };
    match v {
        Json::Object(o) => o.iter().for_each(|(k, x)| leaf_paths(x, &join(k), out)),
        Json::Array(xs) => (xs.iter().enumerate()).for_each(|(i, x)| {
            leaf_paths(x, &format!("{at}[{i}]"), out);
        }),
        _ => {
            out.insert(at.to_string());
        }
    }
}

#[test]
fn stats_reports_each_number_once() {
    // One reply reports everything the daemon counts, each section once:
    // the per-method request table, the session table with each manager's
    // builds, memory and whole cache counters, the shards, the store, and
    // the IDE, audit and plan counters. There is no second endpoint.
    let server = start_server(2);
    let mut c = Client::connect(&server.addr.to_string()).expect("connect");
    load(&mut c, "workload:blackscholes", "bs");
    let sess = Json::object([("session".to_string(), Json::Str("bs".into()))]);
    for method in ["pdg", "audit", "plan"] {
        c.call(method, sess.clone()).expect(method);
    }
    let doc = |rest: &[(&str, Json)]| {
        let doc = [("doc".to_string(), Json::Str("demo".into()))];
        Json::object(
            doc.into_iter()
                .chain(rest.iter().map(|(k, v)| (k.to_string(), v.clone()))),
        )
    };
    let text = include_str!("corpus/ide/demo.nir");
    c.call("ide/open", doc(&[("text", Json::Str(text.into()))]))
        .expect("ide/open");
    let note = Json::Str("  fmeta \"ide.note\" = \"edited\"".into());
    let splice = [
        ("version", Json::Int(2)),
        ("start_line", Json::Int(5)),
        ("end_line", Json::Int(5)),
        ("lines", Json::Array(vec![note])),
    ];
    c.call("ide/change", doc(&splice)).expect("ide/change");
    c.call("ide/close", doc(&[])).expect("ide/close");

    let stats = c.call("stats", Json::object([])).expect("stats");
    let sections: Vec<&String> = stats.as_object().expect("an object").keys().collect();
    let expected = [
        "audit",
        "ide",
        "plan",
        "protocol_version",
        "requests",
        "shards",
        "table",
        "uptime_ms",
    ];
    assert_eq!(sections, expected, "{stats:?}");
    let mut paths = BTreeSet::new();
    leaf_paths(&stats, "", &mut paths);
    for p in STATS_PATHS {
        assert!(paths.contains(*p), "stats lost {p}: {stats:?}");
    }
    let ide = stats.get("ide").expect("ide");
    for (key, n) in [
        ("opens", 1),
        ("closes", 1),
        ("changes", 1),
        ("open_docs", 0),
    ] {
        assert_eq!(ide.get(key).and_then(Json::as_i64), Some(n), "ide.{key}");
    }
    // A metadata edit relints nothing.
    assert_eq!(
        ide.get("relinted_functions").and_then(Json::as_i64),
        Some(0)
    );
    for section in ["audit", "plan"] {
        let runs = stats.get(section).and_then(|s| s.get("runs"));
        assert_eq!(runs.and_then(Json::as_i64), Some(1), "{section}.runs");
    }

    let row = stats
        .get("table")
        .and_then(|t| t.get("sessions"))
        .and_then(|s| s.get("bs"))
        .expect("the session's row");
    let mut direct = Noelle::new(
        noelle::workloads::by_name("blackscholes")
            .expect("workload")
            .build(),
        AliasTier::Full,
    );
    let partitions = direct.pdg().per_function.len() as i64;
    let pdg_builds = row.get("builds").and_then(|b| b.get("PDG"));
    let pdg_builds = pdg_builds.and_then(|p| p.get("builds"));
    assert_eq!(pdg_builds.and_then(Json::as_i64), Some(partitions));
    let memory = row.get("memory").expect("the manager's memory");
    assert!(memory.get("pdg_bytes").and_then(Json::as_i64).unwrap() > 0);
    let cache = row.get("func_cache").and_then(Json::as_object).unwrap();
    let cache: Vec<&String> = cache.keys().collect();
    let fields = [
        "andersen_regen_funcs",
        "andersen_reset_rows",
        "andersen_reuses",
        "invalidations",
        "pdg_hits",
        "pdg_misses",
        "struct_hits",
        "struct_misses",
    ];
    assert_eq!(
        cache, fields,
        "every FuncCacheCounters field but the store's, once"
    );
    let pdg = stats.get("requests").and_then(|r| r.get("pdg"));
    let pdg = pdg.and_then(|p| p.get("count")).and_then(Json::as_i64);
    assert_eq!(pdg, Some(1));

    // The old second endpoint is an unknown method, counted as one.
    let reply = c.request("metrics", Json::object([])).expect("reply");
    let code = reply.get("error").and_then(|e| e.get("code"));
    assert_eq!(code.and_then(Json::as_str), Some("unknown_method"));
    let stats = c.call("stats", Json::object([])).expect("stats");
    let unknown = stats.get("requests").and_then(|r| r.get("unknown"));
    let unknown = unknown.and_then(|u| u.get("count")).and_then(Json::as_i64);
    assert_eq!(unknown, Some(1), "{stats:?}");
    server.shutdown_and_join();
}

#[test]
fn ide_totals_in_stats_never_go_backwards() {
    // A close moves a document's counters into the closed documents'
    // totals under the lock it removes the document with, and so does an
    // open that replaces a document of the same name, so a `stats` polled
    // while documents open, change, reopen and close sees every `ide`
    // total only grow.
    let state = Server::new(ServerConfig::default()).embedded();
    let call = |method: &str, params: Json| {
        let req = Json::object([
            ("id".to_string(), Json::Int(1)),
            ("method".to_string(), Json::Str(method.into())),
            ("params".to_string(), params),
        ]);
        let req = Request::from_json(&req).expect("a request");
        let reply = Json::parse(&run_request_text(&state, &req)).expect("a JSON reply");
        let ok = reply.get("ok").cloned();
        ok.unwrap_or_else(|| panic!("{method}: {reply:?}"))
    };
    let text = Json::Str(include_str!("corpus/ide/demo.nir").into());
    let note = Json::Str("  fmeta \"ide.note\" = \"edited\"".into());
    const ROUNDS: i64 = 3000;
    let done = AtomicBool::new(false);
    let polls = std::thread::scope(|scope| {
        scope.spawn(|| {
            for round in 0..ROUNDS {
                let doc = ("doc".to_string(), Json::Str("d".into()));
                // Every other round opens the document twice before closing it.
                for _ in 0..1 + round % 2 {
                    let open = [doc.clone(), ("text".to_string(), text.clone())];
                    call("ide/open", Json::object(open));
                    let change = [
                        doc.clone(),
                        ("version".to_string(), Json::Int(2)),
                        ("start_line".to_string(), Json::Int(5)),
                        ("end_line".to_string(), Json::Int(5)),
                        ("lines".to_string(), Json::Array(vec![note.clone()])),
                    ];
                    call("ide/change", Json::object(change));
                }
                call("ide/close", Json::object([doc]));
            }
            done.store(true, Ordering::SeqCst);
        });
        let mut last: BTreeMap<String, i64> = BTreeMap::new();
        let mut polls = 0;
        while !done.load(Ordering::SeqCst) {
            let stats = call("stats", Json::object([]));
            let ide = stats.get("ide").and_then(Json::as_object).expect("ide");
            for (key, v) in ide.iter().filter(|(k, _)| *k != "open_docs") {
                let v = v.as_i64().expect("a count");
                let before = last.insert(key.clone(), v).unwrap_or(0);
                assert!(v >= before, "ide.{key} went from {before} to {v}");
            }
            polls += 1;
        }
        polls
    });
    assert!(polls > 0);
    let ide = call("stats", Json::object([]));
    let ide = ide.get("ide").expect("ide");
    let opens = ROUNDS + ROUNDS / 2;
    for (key, n) in [
        ("opens", opens),
        ("closes", ROUNDS),
        ("changes", opens),
        ("incremental_reparses", opens),
    ] {
        assert_eq!(ide.get(key).and_then(Json::as_i64), Some(n), "ide.{key}");
    }
}

#[test]
fn overloaded_shard_sheds_with_structured_errors() {
    // One shard, one worker, a one-deep queue: concurrent cold builds
    // cannot all be admitted.
    let server = Server::new(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        shards: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    })
    .start()
    .expect("bind ephemeral port");
    let addr = server.addr.to_string();
    let mut c = Client::connect(&addr).expect("connect");
    load(&mut c, "workload:pdg_stress", "hot");

    const FLOOD: usize = 12;
    let replies: Vec<Json> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..FLOOD)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut c = Client::connect(&addr).expect("connect");
                    c.request("pdg", sess("hot"))
                        .expect("a reply frame arrives")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });

    // Every request got a definite answer: the build result or a
    // structured `overloaded` error — never a hang, never a bare close.
    let mut oks = 0;
    let mut sheds = 0;
    for r in &replies {
        if r.get("ok").is_some() {
            oks += 1;
        } else {
            let code = r
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str);
            assert_eq!(code, Some("overloaded"), "unexpected reply: {r:?}");
            sheds += 1;
        }
    }
    assert!(oks > 0, "admitted requests completed");
    assert!(sheds > 0, "a one-deep queue under a 12-way flood must shed");

    // The shed counter and a bounded tail latency show up in stats: the
    // admitted requests' p99 is build+queue time, not unbounded backlog.
    let stats = c.call("stats", Json::object([])).expect("stats");
    let pdg = stats
        .get("requests")
        .and_then(|r| r.get("pdg"))
        .expect("pdg metrics");
    assert!(pdg.get("sheds").and_then(Json::as_i64).unwrap() >= sheds as i64);
    let p99_us = pdg.get("p99_us").and_then(Json::as_i64).expect("p99");
    assert!(
        p99_us < 30_000_000,
        "admitted p99 stays bounded (got {p99_us}us)"
    );

    server.shutdown_and_join();
}
