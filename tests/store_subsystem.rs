//! Durability tests for the `noelle-store` partition cache behind the
//! `Noelle` manager: a manager over a reopened store answers
//! byte-identically from disk, CRC catches truncated and bit-flipped
//! segment entries (the manager silently recomputes — never panics, never
//! answers with stale bytes), and `fsck` reports the damage.

use noelle::core::noelle::{AliasTier, Noelle};
use noelle::core::wire;
use noelle_store::Store;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn temp_store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("noelle-store-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create store dir");
    dir
}

/// A manager over `workload`, with the store at `dir` attached when given.
fn manager(workload: &str, dir: Option<&Path>) -> Noelle {
    let w = noelle::workloads::by_name(workload).expect("workload");
    let mut n = Noelle::new(w.build(), AliasTier::Full);
    if let Some(dir) = dir {
        n.set_store(Arc::new(Store::open(dir).expect("open store")));
    }
    n
}

/// The SCCDAG of `main`'s first loop, asked for before the whole PDG (so a
/// warm manager serves it from one decoded partition), then the PDG: the
/// bytes the daemon's `sccdag` and `pdg` replies carry.
fn answers(n: &mut Noelle) -> (String, String) {
    let main = n.module().func_id_by_name("main").expect("main");
    let l = n
        .loop_forest(main)
        .loops()
        .first()
        .expect("main has a loop")
        .id;
    let dag = wire::sccdag_to_json(&n.loop_abstraction(main, l).sccdag).to_string_compact();
    let pdg = wire::pdg_to_json(&n.module().clone(), &n.pdg()).to_string_compact();
    (dag, pdg)
}

/// Fill a fresh store at `dir` with `workload`'s partitions. Dropping the
/// manager drops the store, whose writer publishes every pending entry.
fn populate(workload: &str, dir: &Path) {
    let mut n = manager(workload, Some(dir));
    n.pdg();
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
fn a_reopened_store_answers_byte_identically() {
    let dir = temp_store_dir("reopen");
    let cold = answers(&mut manager("blackscholes", None));

    // Generation 1: pay the cold builds, then drop manager and store.
    {
        let mut n = manager("blackscholes", Some(&dir));
        assert_eq!(answers(&mut n), cold, "a store changed a cold build");
        let c = n.func_cache_counters();
        assert_eq!(c.store_hits, 0, "a fresh store has nothing to hit");
    }

    // Generation 2: a new manager over the reopened directory must answer
    // the same bytes, and must have read them from the store.
    let mut n = manager("blackscholes", Some(&dir));
    let (dag, pdg) = answers(&mut n);
    assert_eq!(dag, cold.0, "sccdag diverged across reopen");
    assert_eq!(pdg, cold.1, "pdg diverged across reopen");
    assert!(
        n.func_cache_counters().store_hits > 0,
        "the warm generation must be answering from the store"
    );
    drop(n);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bit_flipped_store_entries_are_detected_and_recomputed() {
    let dir = temp_store_dir("bitflip");
    populate("crc32", &dir);
    assert!(flip_segment_bytes(&dir) > 0, "segments were written");
    let report = Store::fsck(&dir).expect("fsck");
    assert!(
        report.corrupt() + report.undecodable > 0,
        "fsck must see the flipped entry: {report:?}"
    );

    // The manager opens the damaged store, rejects the bad entry by CRC,
    // and recomputes: its answers match a build with no store.
    let warm = answers(&mut manager("crc32", Some(&dir)));
    assert_eq!(warm, answers(&mut manager("crc32", None)));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_segments_are_detected_and_recomputed() {
    let dir = temp_store_dir("truncate");
    populate("blackscholes", &dir);
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

    let warm = answers(&mut manager("blackscholes", Some(&dir)));
    assert_eq!(warm, answers(&mut manager("blackscholes", None)));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fsck_flags_damage() {
    let dir = temp_store_dir("fsck");
    populate("swaptions", &dir);
    let clean = Store::fsck(&dir).expect("fsck");
    assert!(clean.clean(), "freshly written store is clean: {clean:?}");
    assert!(clean.live > 0);

    assert!(flip_segment_bytes(&dir) > 0);
    let damaged = Store::fsck(&dir).expect("fsck");
    assert!(!damaged.clean(), "fsck must flag the flip: {damaged:?}");
    let _ = fs::remove_dir_all(&dir);
}
