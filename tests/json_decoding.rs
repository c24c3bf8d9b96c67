//! The JSON decoders against hostile input. `Json::parse` reads daemon
//! frames (up to 64 MiB) and the `noelle.arch` and profile metadata of IR
//! text, and it recurses once per nesting level, so a document nested past
//! `MAX_DEPTH` must come back `None` instead of overflowing the stack of
//! whichever thread parses it; the daemon answers such a frame with a
//! structured error and keeps serving the connection. The mutation smoke
//! feeds byte-mutated replies and frames of a real daemon session to
//! `Json::parse` and `protocol::read_frame`: each mutant is refused or
//! decoded, never a panic (ROADMAP item 7, decoders). An object, built or
//! parsed, is the `BTreeMap` it replaced: the same members, order, lookups
//! and rendering, a repeated key keeping its last value.

use noelle::core::json::{Json, MAX_DEPTH};
use noelle_fuzz::generator::SplitMix64;
use noelle_server::protocol::{read_frame, write_frame_text};
use noelle_server::{Server, ServerConfig};
use std::collections::BTreeMap;
use std::io::Cursor;
use std::net::TcpStream;

/// `depth` arrays, each holding the next.
fn nested(depth: usize) -> String {
    "[".repeat(depth) + &"]".repeat(depth)
}

/// Run `f` on a thread with a 2 MiB stack: what a spawned thread gets by
/// default, the daemon's connection readers included.
fn on_small_stack<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawns")
        .join()
        .expect("parses without a panic")
}

#[test]
fn a_document_nested_past_the_bound_is_refused_on_a_small_stack() {
    // 20 KB of brackets; before the bound this aborted the process.
    let (parsed, prefix) = on_small_stack(|| {
        let deep = nested(10_000);
        (Json::parse(&deep), Json::parse_prefix(&deep))
    });
    assert_eq!(parsed, None);
    assert_eq!(prefix, None);
    // Objects are levels too.
    let levels = MAX_DEPTH + 1;
    let objects = "{\"a\":".repeat(levels) + "1" + &"}".repeat(levels);
    assert_eq!(Json::parse(&objects), None);
}

#[test]
fn a_document_at_the_bound_parses() {
    let (at, past) = on_small_stack(|| {
        (
            Json::parse(&nested(MAX_DEPTH)),
            Json::parse(&nested(MAX_DEPTH + 1)),
        )
    });
    let at = at.expect("a document at the bound parses");
    let mut depth = 0;
    let mut level = Some(&at);
    while let Some(Json::Array(items)) = level {
        depth += 1;
        level = items.first();
    }
    assert_eq!(depth, MAX_DEPTH);
    assert_eq!(past, None);
    // Arrays and objects share the one budget.
    let half = MAX_DEPTH / 2;
    let mixed = "{\"a\":[".repeat(half) + &"]}".repeat(half);
    assert!(Json::parse(&mixed).is_some());
}

#[test]
fn the_daemon_answers_a_too_deep_frame_with_an_error_then_pings() {
    let deep = format!(
        r#"{{"id":1,"method":"ping","params":{{"x":{}}}}}"#,
        nested(10_000)
    );
    let ping = r#"{"id":2,"method":"ping","params":{}}"#;
    let code = |reply: &Json| {
        let code = reply.get("error").and_then(|e| e.get("code"));
        code.and_then(Json::as_str).map(str::to_string)
    };

    // Over TCP, where each connection's reader thread parses its frames.
    let server = Server::new(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServerConfig::default()
    })
    .start()
    .expect("bind ephemeral port");
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    let mut exchange = |frame: &str| {
        write_frame_text(&mut stream, frame).expect("writes the frame");
        read_frame(&mut stream)
            .expect("reads the reply")
            .expect("a reply, not a closed connection")
    };
    let refused = exchange(&deep);
    assert_eq!(code(&refused).as_deref(), Some("bad_request"), "{refused}");
    let pong = exchange(ping);
    assert_eq!(pong.get("id").and_then(Json::as_i64), Some(2), "{pong}");
    assert!(pong.get("ok").is_some(), "{pong}");
    drop(stream);
    server.shutdown_and_join();

    // And over stdio, one line each.
    let mut out = Vec::new();
    Server::new(ServerConfig::default())
        .serve_stdio(&mut Cursor::new(format!("{deep}\n{ping}\n")), &mut out)
        .expect("stdio serve");
    let replies: Vec<Json> = String::from_utf8(out)
        .expect("utf8")
        .lines()
        .map(|l| Json::parse(l).expect("a reply line"))
        .collect();
    assert_eq!(replies.len(), 2);
    assert_eq!(code(&replies[0]).as_deref(), Some("bad_request"));
    assert!(replies[1].get("ok").is_some(), "{}", replies[1]);
}

/// The request lines of a short daemon session and the daemon's replies to
/// them, as the stdio daemon writes them.
fn session() -> (Vec<String>, Vec<String>) {
    let requests: Vec<String> = [
        r#"{"id":1,"method":"load","params":{"path":"workload:blackscholes","session":"s"}}"#,
        r#"{"id":2,"method":"ping","params":{},"v":2}"#,
        r#"{"id":3,"method":"stats","params":{}}"#,
        r#"{"id":4,"method":"audit","params":{"session":"s"}}"#,
        r#"{"id":5,"method":"plan","params":{"session":"s"}}"#,
        r#"{"id":6,"method":"no-such-method","params":{}}"#,
    ]
    .map(str::to_string)
    .into();
    let mut out = Vec::new();
    Server::new(ServerConfig::default())
        .serve_stdio(&mut Cursor::new(requests.join("\n")), &mut out)
        .expect("stdio serve");
    let replies: Vec<String> = String::from_utf8(out)
        .expect("utf8")
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(replies.len(), requests.len());
    (requests, replies)
}

/// One to three random byte-level edits of `bytes`: flip a bit, overwrite
/// a byte with another of the input's own (so mutants stay near the
/// format), insert or delete a byte, truncate, or splice in a run of
/// opening brackets up to twice the nesting bound.
fn mutate(bytes: &[u8], rng: &mut SplitMix64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for _ in 0..=rng.below(3) {
        let at = rng.below(out.len() as u64) as usize;
        match rng.below(6) {
            0 => out[at] ^= 1 << rng.below(8),
            1 => out[at] = *rng.pick(bytes),
            2 => out.insert(at, rng.below(256) as u8),
            3 => drop(out.remove(at)),
            4 => out.truncate(at.max(1)),
            _ => {
                let run = 1 + rng.below(2 * MAX_DEPTH as u64) as usize;
                let open = if rng.chance(50) { b'[' } else { b'{' };
                drop(out.splice(at..at, std::iter::repeat_n(open, run)));
            }
        }
        if out.is_empty() {
            out.push(b'[');
        }
    }
    out
}

/// A decoded mutant is a value like any other: it renders, and the
/// rendering parses again.
fn assert_renders(v: &Json) {
    let text = v.to_string_compact();
    assert!(Json::parse(&text).is_some(), "{text}");
}

#[test]
fn byte_mutated_replies_and_frames_never_panic_the_decoders() {
    const TEXT_MUTANTS: usize = 6_000;
    const STREAM_MUTANTS: usize = 1_500;
    let (requests, replies) = session();
    let texts: Vec<&String> = requests.iter().chain(&replies).collect();
    let mut rng = SplitMix64::new(0x4e4f_454c_4c45);

    let (mut refused, mut decoded) = (0, 0);
    for _ in 0..TEXT_MUTANTS {
        let bytes = mutate(rng.pick(&texts).as_bytes(), &mut rng);
        // The decoder's input type is `&str`; bytes that are not UTF-8
        // never reach it.
        let Ok(text) = std::str::from_utf8(&bytes) else {
            continue;
        };
        match Json::parse(text) {
            None => refused += 1,
            Some(v) => {
                decoded += 1;
                assert_renders(&v);
            }
        }
    }
    eprintln!("Json::parse: {refused} refused, {decoded} decoded");
    assert!(
        refused > TEXT_MUTANTS / 4 && decoded > TEXT_MUTANTS / 50,
        "{refused} refused, {decoded} decoded"
    );

    // The whole session as one stream of frames, read to its end.
    let mut stream = Vec::new();
    for text in &texts {
        write_frame_text(&mut stream, text).expect("frames the text");
    }
    let (mut broken, mut frames) = (0, 0);
    for _ in 0..STREAM_MUTANTS {
        let bytes = mutate(&stream, &mut rng);
        let mut r = &bytes[..];
        loop {
            match read_frame(&mut r) {
                Ok(Some(v)) => {
                    frames += 1;
                    assert_renders(&v);
                }
                Ok(None) => break,
                Err(_) => {
                    broken += 1;
                    break;
                }
            }
        }
    }
    eprintln!("read_frame: {broken} streams broken, {frames} frames decoded");
    assert!(
        broken > STREAM_MUTANTS / 2 && frames > STREAM_MUTANTS,
        "{broken} broken, {frames} frames"
    );
}

/// A key of one to three characters from a small alphabet, so a sequence of
/// a few dozen repeats some and arrives out of order.
fn short_key(rng: &mut SplitMix64) -> String {
    let len = 1 + rng.below(3) as usize;
    (0..len)
        .map(|_| *rng.pick(&['a', 'b', 'c', 'é', '"']))
        .collect()
}

#[test]
fn an_object_is_the_btreemap_it_replaced() {
    let mut rng = SplitMix64::new(0x4d41_5053);
    for _ in 0..400 {
        // Up to 40 members: longer than a sort's small-input cutoff.
        let pairs: Vec<(String, Json)> = (0..rng.below(41))
            .map(|i| (short_key(&mut rng), Json::Int(i as i64)))
            .collect();
        let mut reference = BTreeMap::new();
        for (k, v) in &pairs {
            reference.insert(k.clone(), v.clone());
        }
        let built = Json::object(pairs.clone());
        let map = built.as_object().expect("an object");
        assert_eq!(map.len(), reference.len());
        assert!(map.iter().eq(reference.iter()), "{pairs:?}");
        for _ in 0..8 {
            let probe = short_key(&mut rng);
            assert_eq!(map.get(&probe), reference.get(&probe), "{probe:?}");
        }
        let member = |(k, v): (&String, &Json)| format!("{}:{v}", Json::Str(k.clone()));
        let rendered: Vec<String> = reference.iter().map(member).collect();
        assert_eq!(
            built.to_string_compact(),
            format!("{{{}}}", rendered.join(","))
        );
        // Written as the pairs came, repeats and all, it parses to the same.
        let written: Vec<String> = pairs.iter().map(|(k, v)| member((k, v))).collect();
        let parsed = Json::parse(&format!("{{{}}}", written.join(",")));
        assert_eq!(parsed.as_ref(), Some(&built), "{written:?}");
    }
    let parsed = Json::parse(r#"{"b":1,"a":2,"b":3}"#).expect("parses");
    assert_eq!(parsed.get("b"), Some(&Json::Int(3)));
    assert_eq!(parsed.to_string_compact(), r#"{"a":2,"b":3}"#);
}
