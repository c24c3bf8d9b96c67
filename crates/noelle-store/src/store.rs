//! The store proper: an indexed directory of segments plus a background
//! writer.
//!
//! Reads are synchronous and lock-light (an `RwLock`ed index probe plus one
//! `pread`); writes are fire-and-forget — [`Store::put`] hands the payload
//! to a writer thread that batches entries and publishes each batch as an
//! atomically renamed segment. The writer publishes eagerly (a short idle
//! tick flushes any pending batch), so even a process killed by SIGTERM —
//! which std Rust cannot catch — loses at most the last few milliseconds
//! of writes, and never corrupts what was already published.

use crate::artifact;
use crate::key::{ArtifactKind, StoreKey};
use crate::segment::{
    parse_segment_file_name, read_payload, scan_segment, segment_file_name, write_segment,
    SegmentEntry,
};
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Publish a pending batch after this many payload bytes.
const BATCH_BYTES: usize = 4 << 20;
/// ... or this many entries.
const BATCH_ENTRIES: usize = 512;
/// ... or this much idle time with a non-empty batch.
const IDLE_FLUSH: Duration = Duration::from_millis(20);

#[derive(Clone, Copy, Debug)]
struct EntryRef {
    seg: u64,
    entry: SegmentEntry,
}

#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    corrupt: AtomicU64,
}

struct Shared {
    dir: PathBuf,
    index: RwLock<HashMap<StoreKey, EntryRef>>,
    next_seg: AtomicU64,
    bytes_on_disk: AtomicU64,
    counters: Counters,
    /// Held while publishing, so two publishes never interleave.
    publish: Mutex<()>,
}

enum Msg {
    Put(StoreKey, ArtifactKind, Vec<u8>),
    Flush(Sender<()>),
}

/// Point-in-time store statistics (all counters are since-open).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StoreStats {
    /// Distinct keys currently readable.
    pub entries: u64,
    /// Total size of all segment files.
    pub bytes_on_disk: u64,
    /// `get` calls served from disk.
    pub hits: u64,
    /// `get` calls that found nothing (or found corruption).
    pub misses: u64,
    /// Entries durably published.
    pub writes: u64,
    /// Entries rejected by CRC/framing checks (open-time and read-time).
    pub corrupt: u64,
}

/// A durable content-addressed artifact store rooted at one directory.
///
/// Cheap to share: wrap in an `Arc` and hand clones of that to every
/// session. Dropping the last handle flushes and joins the writer.
pub struct Store {
    shared: Arc<Shared>,
    tx: Mutex<Option<Sender<Msg>>>,
    writer: Mutex<Option<JoinHandle<()>>>,
}

impl Store {
    /// Open (creating if absent) the store at `dir`: scan every segment,
    /// build the in-memory index, and start the background writer.
    ///
    /// # Errors
    /// Propagates I/O failures creating or listing the directory. Corrupt
    /// segment *contents* are counted, not raised.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Store> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut index = HashMap::new();
        let mut corrupt = 0u64;
        let mut bytes = 0u64;
        let mut max_seg = 0u64;
        let mut seg_ids: Vec<u64> = Vec::new();
        for e in fs::read_dir(&dir)? {
            let e = e?;
            let name = e.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(id) = parse_segment_file_name(name) {
                seg_ids.push(id);
            } else if name.starts_with(".tmp-") {
                // Leftover from a crashed publish: never renamed, so never
                // observed — safe to delete.
                let _ = fs::remove_file(e.path());
            }
        }
        // Later segments supersede earlier ones for duplicate keys.
        seg_ids.sort_unstable();
        for id in seg_ids {
            let scan = scan_segment(&dir.join(segment_file_name(id)))?;
            corrupt += scan.corrupt as u64;
            bytes += scan.bytes;
            max_seg = max_seg.max(id + 1);
            for entry in scan.entries {
                index.insert(entry.key, EntryRef { seg: id, entry });
            }
        }
        let shared = Arc::new(Shared {
            dir,
            index: RwLock::new(index),
            next_seg: AtomicU64::new(max_seg),
            bytes_on_disk: AtomicU64::new(bytes),
            counters: Counters {
                corrupt: AtomicU64::new(corrupt),
                ..Counters::default()
            },
            publish: Mutex::new(()),
        });
        let (tx, rx) = mpsc::channel();
        let writer_shared = Arc::clone(&shared);
        let writer = std::thread::Builder::new()
            .name("noelle-store-writer".into())
            .spawn(move || writer_loop(&writer_shared, &rx))
            .expect("spawn store writer");
        Ok(Store {
            shared,
            tx: Mutex::new(Some(tx)),
            writer: Mutex::new(Some(writer)),
        })
    }

    /// Fetch the payload stored under `key`, re-verifying its CRC. Any
    /// failure — absent key, vanished segment, bit rot since open — is a
    /// miss; a read can degrade performance but never answers wrongly.
    pub fn get(&self, key: StoreKey) -> Option<Vec<u8>> {
        let r = {
            let index = self.shared.index.read().expect("store index poisoned");
            index.get(&key).copied()
        };
        let Some(r) = r else {
            self.shared.counters.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let path = self.shared.dir.join(segment_file_name(r.seg));
        match read_payload(&path, &r.entry) {
            Ok(Some(payload)) => {
                self.shared.counters.hits.fetch_add(1, Ordering::Relaxed);
                Some(payload)
            }
            Ok(None) | Err(_) => {
                // Degraded since the open-time scan: drop the index entry
                // so we stop probing it, and report a miss.
                self.shared
                    .index
                    .write()
                    .expect("store index poisoned")
                    .remove(&key);
                self.shared.counters.corrupt.fetch_add(1, Ordering::Relaxed);
                self.shared.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Queue `payload` for durable publication under `key`. Returns
    /// immediately; the background writer batches and publishes. A key
    /// that is already stored is skipped (content-addressing makes
    /// re-writes byte-identical, so there is nothing to update).
    pub fn put(&self, key: StoreKey, kind: ArtifactKind, payload: Vec<u8>) {
        if self
            .shared
            .index
            .read()
            .expect("store index poisoned")
            .contains_key(&key)
        {
            return;
        }
        if let Some(tx) = &*self.tx.lock().expect("store tx poisoned") {
            let _ = tx.send(Msg::Put(key, kind, payload));
        }
    }

    /// Block until every `put` issued before this call is durably
    /// published.
    pub fn flush(&self) {
        let ack = {
            let tx = self.tx.lock().expect("store tx poisoned");
            let Some(tx) = &*tx else { return };
            let (ack_tx, ack_rx) = mpsc::channel();
            if tx.send(Msg::Flush(ack_tx)).is_err() {
                return;
            }
            ack_rx
        };
        let _ = ack.recv();
    }

    /// Current statistics.
    pub fn stats(&self) -> StoreStats {
        let entries = self
            .shared
            .index
            .read()
            .expect("store index poisoned")
            .len() as u64;
        StoreStats {
            entries,
            bytes_on_disk: self.shared.bytes_on_disk.load(Ordering::Relaxed),
            hits: self.shared.counters.hits.load(Ordering::Relaxed),
            misses: self.shared.counters.misses.load(Ordering::Relaxed),
            writes: self.shared.counters.writes.load(Ordering::Relaxed),
            corrupt: self.shared.counters.corrupt.load(Ordering::Relaxed),
        }
    }

    /// Offline integrity check of the store directory at `dir`: walks every
    /// segment without opening a store (no writer, no counters touched).
    ///
    /// # Errors
    /// Propagates I/O failures listing or reading the directory.
    pub fn fsck(dir: &Path) -> io::Result<FsckReport> {
        let mut seg_ids: Vec<u64> = Vec::new();
        let mut temp_files = 0usize;
        for e in fs::read_dir(dir)? {
            let e = e?;
            let name = e.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(id) = parse_segment_file_name(name) {
                seg_ids.push(id);
            } else if name.starts_with(".tmp-") {
                temp_files += 1;
            }
        }
        seg_ids.sort_unstable();
        let mut live: HashMap<StoreKey, bool> = HashMap::new();
        let mut segments = Vec::new();
        let mut superseded_total = 0usize;
        let mut unknown_kind = 0usize;
        for id in seg_ids {
            let path = dir.join(segment_file_name(id));
            let scan = scan_segment(&path)?;
            for entry in &scan.entries {
                match ArtifactKind::from_tag(entry.kind) {
                    Some(kind) => {
                        let payload = read_payload(&path, entry)?.unwrap_or_default();
                        let ok = artifact::validate(kind, &payload);
                        if live.insert(entry.key, ok).is_some() {
                            superseded_total += 1;
                        }
                    }
                    None => unknown_kind += 1,
                }
            }
            segments.push(SegmentReport {
                file: segment_file_name(id),
                entries: scan.entries.len(),
                corrupt: scan.corrupt,
                bytes: scan.bytes,
            });
        }
        let undecodable = live.values().filter(|&&ok| !ok).count();
        Ok(FsckReport {
            segments,
            live: live.len() - undecodable,
            superseded: superseded_total,
            unknown_kind,
            undecodable,
            temp_files,
        })
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        // Closing the channel makes the writer publish its final batch and
        // exit; join so the publish completes before `open` could rescan.
        self.tx.lock().expect("store tx poisoned").take();
        if let Some(writer) = self.writer.lock().expect("store writer poisoned").take() {
            let _ = writer.join();
        }
    }
}

/// Health summary of one segment file.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SegmentReport {
    /// File name within the store directory.
    pub file: String,
    /// Well-framed, CRC-valid entries.
    pub entries: usize,
    /// CRC/framing rejections.
    pub corrupt: usize,
    /// File size.
    pub bytes: u64,
}

/// Result of [`Store::fsck`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FsckReport {
    /// Per-segment health, in segment order.
    pub segments: Vec<SegmentReport>,
    /// Distinct keys whose newest entry is valid and decodable.
    pub live: usize,
    /// Older duplicates shadowed by a newer segment.
    pub superseded: usize,
    /// CRC-valid entries with an unrecognized kind tag (orphans).
    pub unknown_kind: usize,
    /// CRC-valid entries whose payload fails its artifact codec.
    pub undecodable: usize,
    /// Leftover `.tmp-*` files from interrupted publishes.
    pub temp_files: usize,
}

impl FsckReport {
    /// Total CRC/framing rejections across segments.
    pub fn corrupt(&self) -> usize {
        self.segments.iter().map(|s| s.corrupt).sum()
    }

    /// True when nothing needs attention: no corruption, no orphans, no
    /// shadowed duplicates, no leftover temp files.
    pub fn clean(&self) -> bool {
        self.corrupt() == 0
            && self.superseded == 0
            && self.unknown_kind == 0
            && self.undecodable == 0
            && self.temp_files == 0
    }
}

fn writer_loop(shared: &Shared, rx: &Receiver<Msg>) {
    let mut batch: Vec<(StoreKey, u8, Vec<u8>)> = Vec::new();
    let mut batch_bytes = 0usize;
    loop {
        let msg = if batch.is_empty() {
            rx.recv().map_err(|_| RecvTimeoutError::Disconnected)
        } else {
            rx.recv_timeout(IDLE_FLUSH)
        };
        match msg {
            Ok(Msg::Put(key, kind, payload)) => {
                batch_bytes += payload.len();
                batch.push((key, kind as u8, payload));
                if batch.len() >= BATCH_ENTRIES || batch_bytes >= BATCH_BYTES {
                    publish(shared, &mut batch);
                    batch_bytes = 0;
                }
            }
            Ok(Msg::Flush(ack)) => {
                publish(shared, &mut batch);
                batch_bytes = 0;
                let _ = ack.send(());
            }
            Err(RecvTimeoutError::Timeout) => {
                publish(shared, &mut batch);
                batch_bytes = 0;
            }
            Err(RecvTimeoutError::Disconnected) => {
                publish(shared, &mut batch);
                return;
            }
        }
    }
}

fn publish(shared: &Shared, batch: &mut Vec<(StoreKey, u8, Vec<u8>)>) {
    if batch.is_empty() {
        return;
    }
    // Drop keys that became stored since they were queued (or are queued
    // twice in this batch): content-addressing makes rewrites pointless.
    let mut deduped: Vec<(StoreKey, u8, Vec<u8>)> = Vec::with_capacity(batch.len());
    {
        let index = shared.index.read().expect("store index poisoned");
        for (key, kind, payload) in batch.drain(..) {
            if !index.contains_key(&key) && !deduped.iter().any(|(k, _, _)| *k == key) {
                deduped.push((key, kind, payload));
            }
        }
    }
    if deduped.is_empty() {
        return;
    }
    let _publish = shared.publish.lock().expect("store publish poisoned");
    let id = shared.next_seg.fetch_add(1, Ordering::Relaxed);
    let Ok((path, bytes)) = write_segment(&shared.dir, id, &deduped) else {
        return; // disk trouble: writes are a cache, losing them is safe
    };
    let Ok(scan) = scan_segment(&path) else {
        return;
    };
    let mut index = shared.index.write().expect("store index poisoned");
    for entry in scan.entries {
        index.insert(entry.key, EntryRef { seg: id, entry });
    }
    shared.bytes_on_disk.fetch_add(bytes, Ordering::Relaxed);
    shared
        .counters
        .writes
        .fetch_add(deduped.len() as u64, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyCtx;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("noelle-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    /// A tiny valid partition payload (a one-instruction graph, no edges).
    fn partition_payload() -> Vec<u8> {
        use noelle_ir::inst::InstId;
        use noelle_pdg::depgraph::DepGraph;
        artifact::encode_partition(&DepGraph::from_edges([InstId(0)], Vec::new()))
    }

    /// The key of function fingerprint `func_fp` in some module.
    fn key(func_fp: u64) -> StoreKey {
        let ctx = KeyCtx {
            globals_fp: 11,
            module_code_fp: 22,
            tier: 2,
        };
        ctx.partition_key(func_fp)
    }

    #[test]
    fn put_get_survives_reopen() {
        let dir = tmp_dir("reopen");
        let k = key(7);
        let payload = partition_payload();
        {
            let store = Store::open(&dir).unwrap();
            store.put(k, ArtifactKind::PdgPartition, payload.clone());
            store.flush();
            assert_eq!(store.get(k).unwrap(), payload);
            let s = store.stats();
            assert_eq!((s.entries, s.hits, s.writes), (1, 1, 1));
        }
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.get(k).unwrap(), payload);
        assert_eq!(store.stats().corrupt, 0);
        assert!(store.stats().bytes_on_disk > 0);
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_puts_write_once() {
        let dir = tmp_dir("dedup");
        let store = Store::open(&dir).unwrap();
        let k = key(1);
        for _ in 0..5 {
            store.put(k, ArtifactKind::PdgPartition, partition_payload());
        }
        store.flush();
        for _ in 0..5 {
            store.put(k, ArtifactKind::PdgPartition, partition_payload());
        }
        store.flush();
        let s = store.stats();
        assert_eq!((s.entries, s.writes), (1, 1));
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_detected_on_reopen_and_on_read() {
        let dir = tmp_dir("flip");
        let k1 = key(1);
        let k2 = key(2);
        {
            let store = Store::open(&dir).unwrap();
            store.put(k1, ArtifactKind::PdgPartition, partition_payload());
            store.flush();
            store.put(k2, ArtifactKind::PdgPartition, partition_payload());
            store.flush();
        }
        // Flip one payload byte in the first segment.
        let seg0 = dir.join(segment_file_name(0));
        let mut data = fs::read(&seg0).unwrap();
        let n = data.len();
        data[n - 1] ^= 0x01;
        fs::write(&seg0, &data).unwrap();
        let store = Store::open(&dir).unwrap();
        let s = store.stats();
        assert_eq!(s.corrupt, 1);
        assert_eq!(s.entries, 1);
        assert!(store.get(k1).is_none());
        assert!(store.get(k2).is_some());
        // Degrade the second segment *after* open: read-time CRC catches it.
        drop(store);
        let seg1 = dir.join(segment_file_name(1));
        let mut data = fs::read(&seg1).unwrap();
        let n = data.len();
        let store_reopened = {
            let s = Store::open(&dir).unwrap();
            data[n - 1] ^= 0x01;
            fs::write(&seg1, &data).unwrap();
            s
        };
        assert!(store_reopened.get(k2).is_none());
        assert!(store_reopened.stats().corrupt >= 1);
        drop(store_reopened);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entries_in_many_segments_stay_readable_and_fsck_clean() {
        let dir = tmp_dir("segments");
        let store = Store::open(&dir).unwrap();
        for i in 0..10u64 {
            store.put(key(i), ArtifactKind::PdgPartition, partition_payload());
            store.flush(); // one segment per entry
        }
        assert!(fs::read_dir(&dir).unwrap().count() >= 10);
        for i in 0..10u64 {
            assert!(store.get(key(i)).is_some(), "key {i} lost");
        }
        let report = Store::fsck(&dir).unwrap();
        assert!(report.clean(), "{report:?}");
        assert_eq!(report.live, 10);
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsck_reports_corruption() {
        let dir = tmp_dir("fsck");
        {
            let store = Store::open(&dir).unwrap();
            store.put(key(1), ArtifactKind::PdgPartition, partition_payload());
            store.flush();
            store.put(key(2), ArtifactKind::PdgPartition, partition_payload());
            store.flush();
        }
        let seg0 = dir.join(segment_file_name(0));
        let mut data = fs::read(&seg0).unwrap();
        let n = data.len();
        data[n - 1] ^= 0xff;
        fs::write(&seg0, &data).unwrap();
        let report = Store::fsck(&dir).unwrap();
        assert_eq!(report.corrupt(), 1);
        assert_eq!(report.live, 1);
        assert!(!report.clean());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn get_miss_counts() {
        let dir = tmp_dir("miss");
        let store = Store::open(&dir).unwrap();
        assert!(store.get(key(99)).is_none());
        assert_eq!(store.stats().misses, 1);
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }
}
