//! Counting `#[global_allocator]`: exact allocation counts and bytes beside
//! wall time. Counts do not depend on how busy the host is, so two runs of
//! the same code agree on them to a fraction of a percent where their wall
//! times may disagree by several percent.
//!
//! What is counted: every `alloc`, `alloc_zeroed` and `realloc` call is one
//! allocation event; bytes are the sizes requested (for `realloc`, the new
//! size). Live bytes follow alloc/dealloc/realloc exactly, and their
//! high-water mark is the peak heap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

pub struct Counting;

// Statistics only: no other memory is published through these, so Relaxed.
static EVENTS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn counted(size: usize) {
    EVENTS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    grew(size);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged; the counters are side data
// that never influence the pointers handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            counted(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            counted(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            EVENTS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// A reading of the process-wide counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocation events so far (alloc + alloc_zeroed + realloc).
    pub events: u64,
    /// Bytes requested so far.
    pub bytes: u64,
    /// Bytes live right now.
    pub live: usize,
    /// High-water mark of `live` since the last [`reset_peak`].
    pub peak: usize,
}

pub fn snapshot() -> Snapshot {
    Snapshot {
        events: EVENTS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        live: LIVE.load(Ordering::Relaxed),
        peak: PEAK.load(Ordering::Relaxed),
    }
}

/// Restart the high-water mark from the bytes live now, so a later
/// [`snapshot`] reports the peak of the region in between.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    // The test binary installs `Counting` too (see main.rs), and `cargo
    // test` runs tests on parallel threads, so other tests allocate while
    // these run: the assertions are lower bounds on deltas, made with
    // allocations large enough that nothing else in the suite matches them.

    #[test]
    fn counts_across_threads() {
        const THREADS: usize = 4;
        const EACH: usize = 1000;
        const SIZE: usize = 3 << 10;
        let before = snapshot();
        let gate = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    gate.wait(); // all threads hit the counters together
                    for _ in 0..EACH {
                        let v: Vec<u8> = Vec::with_capacity(SIZE);
                        std::hint::black_box(&v);
                    }
                });
            }
        });
        let after = snapshot();
        assert!(after.events - before.events >= (THREADS * EACH) as u64);
        assert!(after.bytes - before.bytes >= (THREADS * EACH * SIZE) as u64);
    }

    #[test]
    fn realloc_is_one_event_of_the_new_size() {
        const BIG: usize = 64 << 20;
        let mut v: Vec<u8> = Vec::with_capacity(BIG);
        std::hint::black_box(&v);
        let before = snapshot();
        v.reserve_exact(2 * BIG); // grows in place or moves: one realloc
        std::hint::black_box(&v);
        let after = snapshot();
        assert!(after.events > before.events);
        assert!(after.bytes - before.bytes >= 2 * BIG as u64);
        assert!(after.live >= 2 * BIG, "live follows the grown block");
        reset_peak();
        drop(v);
        let end = snapshot();
        assert!(end.peak >= 2 * BIG, "peak keeps the high-water mark");
        assert!(end.live + BIG < end.peak, "dealloc lowered live");
    }
}
