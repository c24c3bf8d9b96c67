//! Per-layer probes that are not part of any op. They run once, in the
//! traced run of `scale_analyze` only, and answer questions ROADMAP asks
//! that none of today's end-to-end metrics depends on.

use crate::compile::ANALYZE_GROUPS;
use crate::inputs;
use crate::trace::Tracer;
use noelle_core::noelle::{AliasTier, Noelle};
use noelle_store::Store;
use std::sync::Arc;
use std::time::Instant;

/// One cold PDG build at 10 000 functions. Set beside `pdg.us_per_func` at
/// 991 functions it shows whether the build still grows faster than the
/// module (ROADMAP 2b measured 59 µs/function at 1k against 121 at 10k).
pub fn pdg_at_10k(seed: u64, tr: &mut Tracer) {
    const GROUPS: usize = 303; // 10 000 functions
    let (m, _) = inputs::bench_module(GROUPS, seed);
    let mut n = Noelle::new(m, AliasTier::Full);
    n.points_to();
    n.modref_summaries();
    let t = Instant::now();
    let pdg = n.pdg();
    let us = t.elapsed().as_secs_f64() * 1e6;
    tr.total("pdg.us_per_func_10k", us / pdg.per_function.len() as f64);
}

/// Warm start through the durable store: build the PDG with a store
/// attached, wait for the write-back, then ask a fresh manager over the
/// same store for the same PDG. Is decoding a top-3 cost? Compare
/// `store.warm_pdg_ms` with `pdg.build_ms`.
pub fn store_round_trip(seed: u64, tr: &mut Tracer) -> Result<(), String> {
    let dir = crate::out_dir().join(format!("store_probe_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let result = (|| {
        let store = Arc::new(Store::open(&dir).map_err(|e| format!("{}: {e}", dir.display()))?);
        let (m, _) = inputs::bench_module(ANALYZE_GROUPS, seed);

        let mut cold = Noelle::new(m.clone(), AliasTier::Full);
        cold.set_store(Arc::clone(&store));
        cold.pdg();
        let t = Instant::now();
        store.flush();
        tr.total("store.writeback_ns", t.elapsed().as_nanos() as f64);

        let mut warm = Noelle::new(m, AliasTier::Full);
        warm.set_store(Arc::clone(&store));
        let t = Instant::now();
        warm.pdg();
        tr.total("store.warm_pdg_ns", t.elapsed().as_nanos() as f64);
        let c = warm.func_cache_counters();
        tr.total("store.hits", c.store_hits as f64);
        tr.total("store.lookups", (c.store_hits + c.store_misses) as f64);
        tr.total("store.bytes", store.stats().bytes_on_disk as f64);
        Ok(())
    })();
    // The managers and the store (with its writer thread) are gone by here.
    let _ = std::fs::remove_dir_all(&dir);
    result
}
