//! The session table: loaded modules and their warm abstractions.
//!
//! A **session** is one loaded module wrapped in a demand-driven [`Noelle`]
//! manager. The manager *is* the cache: the first `pdg` request pays the
//! build, later requests get the `Arc` handle back. The per-session
//! `Mutex<Noelle>` doubles as the build lock — when N identical requests
//! race, one takes the lock and builds while the rest queue behind it and
//! then read the cached result, so exactly one build runs (in-flight
//! coalescing). Distinct sessions never share the lock, so the worker pool
//! stays busy across modules.
//!
//! The table evicts least-recently-used sessions when either budget —
//! entry count or approximate resident bytes — is exceeded. A session's
//! bytes are a load estimate for the module (by instruction count) plus
//! what its manager measures it holds in PDG partitions and points-to rows,
//! re-read after every request that runs the manager.

use noelle_core::noelle::Noelle;
use noelle_ir::module::Module;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Rough per-instruction resident cost (module + per-function structures).
const BYTES_PER_INST: usize = 256;

/// Estimate the resident footprint of a freshly loaded module.
pub fn estimate_module_bytes(m: &Module) -> usize {
    let insts: usize = m.functions().iter().map(|f| f.inst_ids().len()).sum();
    insts.max(1) * BYTES_PER_INST
}

/// One loaded module and its warm manager.
pub struct Session {
    /// Session name (client-chosen, or generated by the daemon).
    pub name: String,
    /// The demand-driven manager; its mutex is the per-session build lock.
    pub noelle: Mutex<Noelle>,
    /// LRU clock value of the last touch.
    touched: AtomicU64,
    /// The module's load estimate ([`estimate_module_bytes`]).
    load_bytes: usize,
    /// `load_bytes` plus the manager's measured PDG and points-to bytes, as
    /// of the last request that ran the manager.
    approx_bytes: AtomicUsize,
    /// Module-content epoch: bumped (under the `noelle` build lock) every
    /// time a request mutates the module, i.e. on `run-tool`. Cached reply
    /// texts are versioned by the epoch they were serialized under.
    epoch: AtomicU64,
    /// Serialized ok-payload texts by method, each tagged with the epoch it
    /// was built under. Serializing a whole-program reply to JSON dominates
    /// a warm request, so the daemon pays it once per module version and
    /// splices the cached text into each reply frame — without even taking
    /// the build lock on the fast path.
    replies: Mutex<HashMap<&'static str, (u64, Arc<String>)>>,
}

impl Session {
    /// Current byte estimate.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes.load(Ordering::Relaxed)
    }

    /// The current module-content epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Advance the epoch after a mutating request. Call while holding the
    /// `noelle` lock so cached texts stay in step with module content.
    pub fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// The cached serialized ok-payload for `method`, if one was built
    /// under epoch `epoch`.
    pub fn cached_reply(&self, method: &str, epoch: u64) -> Option<Arc<String>> {
        let cache = self.replies.lock().expect("reply cache lock");
        match cache.get(method) {
            Some((v, text)) if *v == epoch => Some(Arc::clone(text)),
            _ => None,
        }
    }

    /// Cache the serialized ok-payload for `method` as of epoch `epoch`.
    /// Call while holding the `noelle` lock (with the epoch read under that
    /// same hold), so a concurrent mutator cannot tag stale text with a
    /// fresh epoch.
    pub fn store_reply(&self, method: &'static str, epoch: u64, text: Arc<String>) {
        self.replies
            .lock()
            .expect("reply cache lock")
            .insert(method, (epoch, text));
    }
}

/// The LRU-evicting session table.
pub struct SessionTable {
    max_entries: usize,
    max_bytes: usize,
    clock: AtomicU64,
    evictions: AtomicU64,
    inner: Mutex<HashMap<String, Arc<Session>>>,
}

impl SessionTable {
    /// A table bounded by `max_entries` sessions and `max_bytes` of
    /// (approximate) resident abstraction memory.
    pub fn new(max_entries: usize, max_bytes: usize) -> SessionTable {
        SessionTable {
            max_entries: max_entries.max(1),
            max_bytes: max_bytes.max(1),
            clock: AtomicU64::new(1),
            evictions: AtomicU64::new(0),
            inner: Mutex::new(HashMap::new()),
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Insert (or replace) a session holding `noelle`, then evict if over
    /// budget. The new session is the most recently used, so eviction
    /// targets older sessions first.
    pub fn insert(&self, name: &str, noelle: Noelle) -> Arc<Session> {
        let bytes = estimate_module_bytes(noelle.module());
        let s = Arc::new(Session {
            name: name.to_string(),
            noelle: Mutex::new(noelle),
            touched: AtomicU64::new(self.tick()),
            load_bytes: bytes,
            approx_bytes: AtomicUsize::new(bytes),
            epoch: AtomicU64::new(0),
            replies: Mutex::new(HashMap::new()),
        });
        {
            let mut map = self.inner.lock().expect("session lock");
            map.insert(name.to_string(), Arc::clone(&s));
        }
        self.evict_over_budget();
        s
    }

    /// Look up a session, refreshing its LRU position.
    pub fn get(&self, name: &str) -> Option<Arc<Session>> {
        let map = self.inner.lock().expect("session lock");
        let s = map.get(name).cloned()?;
        s.touched.store(self.tick(), Ordering::Relaxed);
        Some(s)
    }

    /// Run `f` on session `s`'s manager under its build lock, re-measure
    /// the session's footprint — the load estimate plus the bytes of the PDG
    /// partitions and points-to rows the manager now holds — and evict if
    /// the table is now over budget.
    pub fn with_manager<R>(&self, s: &Session, f: impl FnOnce(&mut Noelle) -> R) -> R {
        let r = {
            let mut n = s.noelle.lock().expect("session build lock");
            let r = f(&mut n);
            let mem = n.memory_stats();
            let bytes = s.load_bytes + mem.pdg_bytes + mem.andersen_bytes;
            s.approx_bytes.store(bytes, Ordering::Relaxed);
            r
        };
        self.evict_over_budget();
        r
    }

    /// Drop least-recently-used sessions until both budgets hold (always
    /// keeping the most recent one).
    fn evict_over_budget(&self) {
        let mut map = self.inner.lock().expect("session lock");
        loop {
            let total: usize = map.values().map(|s| s.approx_bytes()).sum();
            if map.len() <= 1 || (map.len() <= self.max_entries && total <= self.max_bytes) {
                return;
            }
            let oldest = map
                .values()
                .min_by_key(|s| s.touched.load(Ordering::Relaxed))
                .map(|s| s.name.clone())
                .expect("non-empty");
            map.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// All live sessions, sorted by name (for deterministic reports).
    pub fn snapshot(&self) -> Vec<Arc<Session>> {
        let map = self.inner.lock().expect("session lock");
        let mut v: Vec<Arc<Session>> = map.values().cloned().collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("session lock").len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sessions evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noelle_core::noelle::AliasTier;

    fn tiny_module(name: &str) -> Module {
        Module::new(name)
    }

    #[test]
    fn lru_eviction_by_entry_budget() {
        let t = SessionTable::new(2, usize::MAX);
        t.insert("a", Noelle::new(tiny_module("a"), AliasTier::Basic));
        t.insert("b", Noelle::new(tiny_module("b"), AliasTier::Basic));
        // Touch `a` so `b` becomes the LRU victim.
        assert!(t.get("a").is_some());
        t.insert("c", Noelle::new(tiny_module("c"), AliasTier::Basic));
        assert_eq!(t.len(), 2);
        assert!(t.get("b").is_none(), "LRU session evicted");
        assert!(t.get("a").is_some() && t.get("c").is_some());
        assert_eq!(t.evictions(), 1);
    }

    #[test]
    fn byte_budget_keeps_most_recent() {
        let t = SessionTable::new(16, 1); // any session overflows 1 byte
        t.insert("a", Noelle::new(tiny_module("a"), AliasTier::Basic));
        t.insert("b", Noelle::new(tiny_module("b"), AliasTier::Basic));
        // Over budget, but the most recent session always survives.
        assert_eq!(t.len(), 1);
        assert!(t.get("b").is_some());
    }
}
