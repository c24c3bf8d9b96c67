//! The JSON decoders against hostile input. `Json::parse` reads daemon
//! frames (up to 64 MiB) and the `noelle.arch` and profile metadata of IR
//! text, and it recurses once per nesting level, so a document nested past
//! `MAX_DEPTH` must come back `None` instead of overflowing the stack of
//! whichever thread parses it; the daemon answers such a frame with a
//! structured error naming the byte where it stops, and keeps serving the
//! connection. The mutation smoke
//! feeds byte-mutated replies and frames of a real daemon session to
//! `Json::parse` and `protocol::read_frame`: each mutant is refused or
//! decoded, never a panic (ROADMAP item 7, decoders), and a refused mutant
//! is refused at or after its first mutated byte. An object, built or
//! parsed, is the `BTreeMap` it replaced: the same members, order, lookups
//! and rendering, a repeated key keeping its last value. A parsed object
//! stays text until it is read, and is then what a fully decoded copy is:
//! the same renderings, equality and lookups over the checked-in corpus,
//! the IDE replay's replies and seeded documents spelled every way compact
//! output would not spell them; it is decoded once, however many threads
//! read it.

use noelle::core::json::{Json, MAX_DEPTH};
use noelle_fuzz::generator::SplitMix64;
use noelle_server::protocol::{read_frame, write_frame_text, Request};
use noelle_server::server::run_request_text;
use noelle_server::{Server, ServerConfig};
use std::collections::BTreeMap;
use std::io::Cursor;
use std::net::TcpStream;
use std::path::Path;
use std::sync::Barrier;

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
    let parsed = on_small_stack(|| Json::parse(&nested(10_000)));
    assert_eq!(parsed, None);
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
    // The refusal names where the frame stops being JSON: the bracket one
    // level past the bound, below the frame's two objects.
    let at = deep.find('[').expect("the arrays") + MAX_DEPTH - 2;
    let names_where = |reply: &Json| {
        let message = reply.get("error").and_then(|e| e.get("message"));
        let message = message.and_then(Json::as_str).unwrap_or_default();
        message.ends_with(&format!("(byte {at})"))
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
    assert!(names_where(&refused), "{refused}");
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
    assert!(names_where(&replies[0]), "{}", replies[0]);
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
        let original = rng.pick(&texts).as_bytes();
        let bytes = mutate(original, &mut rng);
        // The decoder's input type is `&str`; bytes that are not UTF-8
        // never reach it.
        let Ok(text) = std::str::from_utf8(&bytes) else {
            continue;
        };
        match Json::try_parse(text) {
            Err(e) => {
                refused += 1;
                // What precedes the first mutated byte is a prefix of a
                // document, so nothing there can be the error.
                let first = original.iter().zip(&bytes).take_while(|(a, b)| a == b);
                let first = first.count();
                assert!(e.offset >= first, "{e}, mutated from byte {first}: {text}");
            }
            Ok(v) => {
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

/// `v` with every object rebuilt by `Json::object`: the fully decoded copy
/// of a parsed value.
fn decoded(v: &Json) -> Json {
    match v {
        Json::Object(map) => Json::object(map.iter().map(|(k, v)| (k.clone(), decoded(v)))),
        Json::Array(items) => Json::Array(items.iter().map(decoded).collect()),
        other => other.clone(),
    }
}

/// Every value of `reference` is reachable from `lazy` by `get` and
/// indexing, and equal to it.
fn reached_by_get(lazy: &Json, reference: &Json) {
    match reference {
        Json::Object(map) => {
            for (k, v) in map {
                reached_by_get(lazy.get(k).expect("the member is there"), v);
            }
            assert_eq!(lazy.get("\u{0}absent"), None);
        }
        Json::Array(items) => {
            let lazy = lazy.as_array().expect("an array");
            assert_eq!(lazy.len(), items.len());
            for (l, r) in lazy.iter().zip(items) {
                reached_by_get(l, r);
            }
        }
        scalar => assert_eq!(lazy, scalar),
    }
}

/// A fresh parse of `text`, read each way once, against a fully decoded
/// copy. Each reading starts from its own parse, so it meets objects
/// nobody has read yet.
fn assert_lazy_is_decoded(text: &str) -> Json {
    let parse = || Json::parse(text).expect("the input parses");
    let reference = decoded(&parse());
    let compact = reference.to_string_compact();
    assert_eq!(parse().to_string_compact(), compact, "{text}");
    assert_eq!(parse().to_string_pretty(), reference.to_string_pretty());
    assert_eq!(parse(), reference);
    assert_eq!(reference, parse());
    reached_by_get(&parse(), &reference);
    // Canonical input reprints byte for byte.
    assert_eq!(
        Json::parse(&compact).expect("reparses").to_string_compact(),
        compact
    );
    if text.trim() == compact {
        assert_eq!(parse().to_string_compact(), text.trim());
    }
    reference
}

/// Every reply the IDE replay scripts get from an in-process daemon.
fn replay_replies() -> Vec<String> {
    let state = Server::new(ServerConfig::default()).embedded();
    let mut replies = Vec::new();
    for script in ["session.ndjson", "hostile.ndjson"] {
        let path = Path::new("tests/corpus/ide").join(script);
        let text = std::fs::read_to_string(&path).expect("replay script");
        for line in text.lines() {
            let line = Json::parse(line).expect("a request line is JSON");
            let req = Request::from_json(&line).expect("a request line is a request");
            replies.push(run_request_text(&state, &req));
        }
    }
    replies
}

#[test]
fn a_parsed_object_reads_as_its_decoded_copy_over_the_corpus_and_the_replay() {
    let mut files = vec![Path::new("tests/corpus").to_path_buf()];
    let mut checked = 0;
    while let Some(path) = files.pop() {
        if path.is_dir() {
            let entries = std::fs::read_dir(&path).expect("a corpus directory");
            files.extend(entries.map(|e| e.expect("an entry").path()));
        } else if path.extension().is_some_and(|e| e == "json") {
            let text = std::fs::read_to_string(&path).expect("a corpus file");
            assert_lazy_is_decoded(&text);
            checked += 1;
        }
    }
    assert!(checked >= 5, "{checked} corpus files");
    let replies = replay_replies();
    assert!(replies.len() >= 10, "{} replies", replies.len());
    for reply in &replies {
        // A reply is compact output, so the check above reprints it whole.
        assert_eq!(&assert_lazy_is_decoded(reply).to_string_compact(), reply);
    }
}

/// A character of a seeded string and the ways to spell it, compact
/// output's first.
const SPELLINGS: &[(char, &[&str])] = &[
    ('a', &["a"]),
    ('A', &["A", "\\u0041"]),
    ('/', &["/", "\\/"]),
    ('é', &["é", "\\u00e9", "\\u00E9"]),
    ('"', &["\\\"", "\\u0022"]),
    ('\\', &["\\\\", "\\u005c"]),
    ('\n', &["\\n", "\\u000a", "\n"]),
    ('\t', &["\\t", "\t"]),
    ('\u{8}', &["\\u0008", "\\b", "\u{8}"]),
    ('\u{c}', &["\\u000c", "\\f"]),
    ('\u{1f}', &["\\u001f", "\\u001F", "\u{1f}"]),
];

/// A number and the ways to spell it, compact output's first.
const NUMBERS: &[(&str, &[&str])] = &[
    ("0", &["0", "-0"]),
    ("-12", &["-12"]),
    ("1.5", &["1.5", "1.50", "15e-1", "0.15E1"]),
    ("100.0", &["100.0", "1E2", "1e+2", "100.00"]),
    ("-0.0", &["-0.0", "-0e0"]),
    ("0.25", &["0.25", "25e-2"]),
];

/// Where a [`Respeller`] departs from compact output.
#[derive(Clone, Copy)]
enum Flaws {
    /// At the choice of this number, counting from 1, and nowhere else.
    One(usize),
    /// At this percentage of its choices.
    Percent(u64),
}

/// Seeded documents, each with a spelling that is compact output's but
/// where `flaws` says: there, whitespace, members unsorted or repeated, a
/// key that needs an escape, or a string or number spelled another way the
/// grammar allows. One flaw leaves every object canonical but those around
/// it, which is where reprinting verbatim can go wrong.
#[derive(Clone)]
struct Respeller {
    rng: SplitMix64,
    flaws: Flaws,
    /// Choices made so far.
    choices: usize,
}

impl Respeller {
    fn flaw(&mut self) -> bool {
        self.choices += 1;
        match self.flaws {
            Flaws::One(at) => self.choices == at,
            Flaws::Percent(pct) => self.rng.chance(pct),
        }
    }

    /// `ways[0]`, or at a flaw one of the others.
    fn spell<'a>(&mut self, ways: &[&'a str]) -> &'a str {
        match ways.split_first() {
            Some((_, others)) if !others.is_empty() && self.flaw() => {
                others[self.rng.below(others.len() as u64) as usize]
            }
            Some((first, _)) => first,
            None => "",
        }
    }

    fn gap(&mut self, out: &mut String) {
        if self.flaw() {
            let gaps = [" ", "\n", "\t", "\r\n  "];
            out.push_str(gaps[self.rng.below(gaps.len() as u64) as usize]);
        }
    }

    fn string(&mut self, chars: &str) -> String {
        let mut text = String::from("\"");
        for c in chars.chars() {
            match SPELLINGS.iter().find(|(k, _)| *k == c) {
                Some((_, ways)) => text.push_str(self.spell(ways)),
                None => text.push(c),
            }
        }
        text.push('"');
        text
    }

    /// A value nesting at most `depth` more levels, and its spelling.
    fn value(&mut self, depth: usize) -> (Json, String) {
        match self.rng.below(if depth == 0 { 5 } else { 8 }) {
            0 | 1 => {
                let len = 1 + self.rng.below(4);
                let chars: String = (0..len).map(|_| self.rng.pick(SPELLINGS).0).collect();
                let text = self.string(&chars);
                (Json::Str(chars), text)
            }
            2 | 3 => {
                let (value, ways) = self.rng.pick(NUMBERS);
                let text = self.spell(ways).to_string();
                (Json::parse(value).expect("a number"), text)
            }
            4 => {
                let text = *self.rng.pick(&["false", "null", "7"]);
                (Json::parse(text).expect("a literal"), text.to_string())
            }
            5 => self.array(depth - 1),
            _ => self.object(depth - 1),
        }
    }

    fn array(&mut self, depth: usize) -> (Json, String) {
        let mut text = String::from("[");
        let mut items = Vec::new();
        for i in 0..self.rng.below(4) {
            if i > 0 {
                text.push(',');
            }
            self.gap(&mut text);
            let (item, spelled) = self.value(depth);
            items.push(item);
            text.push_str(&spelled);
            self.gap(&mut text);
        }
        text.push(']');
        (Json::Array(items), text)
    }

    fn object(&mut self, depth: usize) -> (Json, String) {
        let mut members = Vec::new();
        for _ in 0..self.rng.below(6) {
            let mut key = short_key(&mut self.rng);
            if !self.flaw() {
                // Compact output escapes a quote; keep most keys plain.
                key = key.replace('"', "a");
            }
            let (value, spelled) = self.value(depth);
            members.push((key, value, spelled));
        }
        if !self.flaw() {
            // In key order, the last of a repeated key kept.
            members.reverse();
            members.sort_by(|a, b| a.0.cmp(&b.0));
            members.dedup_by(|a, b| a.0 == b.0);
        }
        let mut text = String::from("{");
        for (i, (key, _, spelled)) in members.iter().enumerate() {
            if i > 0 {
                text.push(',');
            }
            self.gap(&mut text);
            let key = self.string(key);
            text.push_str(&key);
            self.gap(&mut text);
            text.push(':');
            self.gap(&mut text);
            text.push_str(spelled);
            self.gap(&mut text);
        }
        text.push('}');
        (
            Json::object(members.into_iter().map(|(k, v, _)| (k, v))),
            text,
        )
    }
}

#[test]
fn a_parsed_object_reads_as_its_decoded_copy_however_it_is_spelled() {
    let mut rng = SplitMix64::new(0x4c41_5a59);
    let (mut canonical, mut respelled) = (0, 0);
    for doc in 0..400 {
        let mut respeller = Respeller {
            rng: SplitMix64::new(rng.next_u64()),
            flaws: Flaws::One(0),
            choices: 0,
        };
        respeller.flaws = if doc % 4 == 3 {
            Flaws::Percent(20)
        } else {
            // Count the choices on a copy, then place the flaw among them.
            let mut dry = respeller.clone();
            dry.object(5);
            Flaws::One(1 + rng.below(dry.choices as u64) as usize)
        };
        let (want, text) = respeller.object(5);
        let reference = assert_lazy_is_decoded(&text);
        assert_eq!(reference, want, "{text}");
        assert_eq!(reference.to_string_compact(), want.to_string_compact());
        if text == want.to_string_compact() {
            canonical += 1;
        } else {
            respelled += 1;
        }
    }
    assert!(
        canonical > 20 && respelled > 200,
        "{canonical} canonical, {respelled} respelled"
    );
}

#[test]
fn a_raw_object_read_by_two_threads_is_decoded_once() {
    let text = r#"{"a":{"b":[1,{"c":2}],"d":"e"},"f":{"g":null}}"#;
    for _ in 0..50 {
        let parsed = Json::parse(text).expect("parses");
        let copy = parsed.clone();
        // The address of an object's block: its first key.
        let block = |v: &Json| {
            let first = v.as_object().and_then(|m| m.iter().next());
            first.map(|(k, _)| k as *const String as usize)
        };
        let barrier = Barrier::new(2);
        let read = |v: &Json| {
            barrier.wait();
            let inner = v.get("a").expect("a member");
            (block(v), block(inner))
        };
        let (mine, theirs) = std::thread::scope(|s| {
            let theirs = s.spawn(|| read(&copy));
            (read(&parsed), theirs.join().expect("reads"))
        });
        assert!(mine.0.is_some() && mine.1.is_some());
        assert_eq!(mine, theirs);
    }
}
