//! End-to-end durability tests for the `noelle-store`-backed daemon: a
//! killed-and-restarted server answers byte-identically from disk, CRC
//! catches truncated and bit-flipped segment entries (the daemon silently
//! recomputes — never panics, never serves stale bytes), `fsck`/`compact`
//! report and drop the damage, and an overloaded shard sheds with
//! structured `overloaded` errors instead of unbounded queueing.

use noelle::core::json::Json;
use noelle::core::noelle::{AliasTier, Noelle};
use noelle::core::wire;
use noelle_server::{Client, RunningServer, Server, ServerConfig};
use noelle_store::Store;
use std::fs;
use std::path::{Path, PathBuf};

fn temp_store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("noelle-store-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create store dir");
    dir
}

fn start_with_store(dir: &Path) -> RunningServer {
    Server::new(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        store_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    })
    .start()
    .expect("bind ephemeral port")
}

fn load(c: &mut Client, path: &str, session: &str) {
    let ok = c
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

fn with_loop(name: &str, func: &str) -> Json {
    Json::object([
        ("session".to_string(), Json::Str(name.into())),
        ("func".to_string(), Json::Str(func.into())),
        ("loop".to_string(), Json::Int(0)),
    ])
}

fn store_hits(c: &mut Client) -> i64 {
    c.call("stats", Json::object([]))
        .expect("stats")
        .get("store")
        .and_then(|s| s.get("hits"))
        .and_then(Json::as_i64)
        .expect("store counters present")
}

/// The in-process ground truth the daemon's `pdg` reply must match.
fn direct_pdg_text(workload: &str) -> String {
    let w = noelle::workloads::by_name(workload).expect("workload");
    let mut n = Noelle::new(w.build(), AliasTier::Full);
    wire::pdg_to_json(&n.module().clone(), &n.pdg()).to_string_compact()
}

/// Flip one byte deep inside every segment file: the framing survives but
/// some entry's CRC no longer matches its payload.
fn flip_segment_bytes(dir: &Path) -> usize {
    let mut flipped = 0;
    for e in fs::read_dir(dir).expect("read store dir") {
        let path = e.expect("dir entry").path();
        if path.extension().and_then(|s| s.to_str()) != Some("nsg") {
            continue;
        }
        let mut bytes = fs::read(&path).expect("read segment");
        if bytes.len() < 64 {
            continue;
        }
        let mid = bytes.len() - 32;
        bytes[mid] ^= 0xff;
        fs::write(&path, bytes).expect("write segment");
        flipped += 1;
    }
    flipped
}

#[test]
fn restarted_daemon_answers_byte_identically_from_the_store() {
    let dir = temp_store_dir("restart");

    // Generation 1: pay the cold builds, then die.
    let (pdg1, dag1) = {
        let server = start_with_store(&dir);
        let mut c = Client::connect(&server.addr.to_string()).expect("connect");
        load(&mut c, "workload:blackscholes", "s");
        let pdg = c.call("pdg", sess("s")).expect("cold pdg");
        let dag = c.call("sccdag", with_loop("s", "main")).expect("sccdag");
        assert_eq!(store_hits(&mut c), 0, "a fresh store has nothing to hit");
        server.shutdown_and_join();
        (pdg.to_string_compact(), dag.to_string_compact())
    };

    // Generation 2: a new process on the same directory must answer the
    // same bytes, and must have read them from the store.
    let server = start_with_store(&dir);
    let mut c = Client::connect(&server.addr.to_string()).expect("connect");
    load(&mut c, "workload:blackscholes", "s");
    // sccdag first: served from one decoded partition, no whole-PDG build.
    let dag2 = c
        .call("sccdag", with_loop("s", "main"))
        .expect("warm sccdag");
    let pdg2 = c.call("pdg", sess("s")).expect("warm pdg");
    assert_eq!(
        dag2.to_string_compact(),
        dag1,
        "sccdag diverged across restart"
    );
    assert_eq!(
        pdg2.to_string_compact(),
        pdg1,
        "pdg diverged across restart"
    );
    assert!(
        store_hits(&mut c) > 0,
        "the warm generation must be answering from the store"
    );
    server.shutdown_and_join();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bit_flipped_store_entries_are_detected_and_recomputed() {
    let dir = temp_store_dir("bitflip");
    {
        let server = start_with_store(&dir);
        let mut c = Client::connect(&server.addr.to_string()).expect("connect");
        load(&mut c, "workload:crc32", "s");
        c.call("pdg", sess("s")).expect("cold pdg");
        server.shutdown_and_join();
    }
    assert!(flip_segment_bytes(&dir) > 0, "segments were written");
    let report = Store::fsck(&dir).expect("fsck");
    assert!(
        report.corrupt() + report.undecodable > 0,
        "fsck must see the flipped entry: {report:?}"
    );

    // The daemon opens the damaged store, rejects the bad entry by CRC,
    // and recomputes: the reply matches a clean in-process build.
    let server = start_with_store(&dir);
    let mut c = Client::connect(&server.addr.to_string()).expect("connect");
    load(&mut c, "workload:crc32", "s");
    let ok = c.call("pdg", sess("s")).expect("pdg survives corruption");
    assert_eq!(ok.to_string_compact(), direct_pdg_text("crc32"));
    server.shutdown_and_join();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_segments_are_detected_and_recomputed() {
    let dir = temp_store_dir("truncate");
    {
        let server = start_with_store(&dir);
        let mut c = Client::connect(&server.addr.to_string()).expect("connect");
        load(&mut c, "workload:blackscholes", "s");
        c.call("pdg", sess("s")).expect("cold pdg");
        server.shutdown_and_join();
    }
    // Cut every segment mid-entry: the tail entries are unrecoverable.
    let mut cut = 0;
    for e in fs::read_dir(&dir).expect("read store dir") {
        let path = e.expect("dir entry").path();
        if path.extension().and_then(|s| s.to_str()) != Some("nsg") {
            continue;
        }
        let bytes = fs::read(&path).expect("read segment");
        if bytes.len() > 40 {
            fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
            cut += 1;
        }
    }
    assert!(cut > 0, "segments were written");

    let server = start_with_store(&dir);
    let mut c = Client::connect(&server.addr.to_string()).expect("connect");
    load(&mut c, "workload:blackscholes", "s");
    let ok = c.call("pdg", sess("s")).expect("pdg survives truncation");
    assert_eq!(ok.to_string_compact(), direct_pdg_text("blackscholes"));
    server.shutdown_and_join();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fsck_flags_damage_and_compact_drops_it() {
    let dir = temp_store_dir("fsck");
    {
        let server = start_with_store(&dir);
        let mut c = Client::connect(&server.addr.to_string()).expect("connect");
        load(&mut c, "workload:swaptions", "s");
        c.call("pdg", sess("s")).expect("cold pdg");
        server.shutdown_and_join();
    }
    let clean = Store::fsck(&dir).expect("fsck");
    assert!(clean.clean(), "freshly written store is clean: {clean:?}");
    assert!(clean.live > 0);

    assert!(flip_segment_bytes(&dir) > 0);
    let damaged = Store::fsck(&dir).expect("fsck");
    assert!(!damaged.clean(), "fsck must flag the flip: {damaged:?}");

    // Compaction rewrites only entries that still pass CRC + codec checks.
    let store = Store::open(&dir).expect("open damaged store");
    store.compact().expect("compact");
    drop(store);
    let after = Store::fsck(&dir).expect("fsck after compact");
    assert_eq!(after.corrupt(), 0, "compact dropped the damage: {after:?}");
    assert_eq!(after.undecodable, 0);
    assert!(after.live > 0, "valid entries survive compaction");
    let _ = fs::remove_dir_all(&dir);
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
