//! Sparse bitset rows for the points-to solver.
//!
//! Andersen's analysis is dominated by set unions over small-integer object
//! ids. A `BTreeSet<usize>` pays a pointer chase and an allocation per
//! element; packed 64-bit words pay one word per 64 ids and union with a
//! straight-line `|=` loop.
//!
//! Rows are *windowed*: the word array starts at the row's lowest occupied
//! word (`base`), not at word 0. Object ids are assigned in module order, so
//! a function's points-to rows cluster around the ids its own objects and
//! its callers' allocations were given — often a narrow band high up in a
//! large module's id space. A dense-from-zero row would pay
//! `O(max_id)` words for such a band, making solver time and memory grow
//! with *module* size instead of row population; the window keeps both
//! proportional to the span actually used.
//!
//! Most rows' windows are one word wide. Such a row keeps its word inline
//! and owns no heap block; a wider window is one boxed slice at its exact
//! width, widened once per union however far the other row reaches.

/// A window's words: one held in the row, or two or more on the heap.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Words {
    /// A one-word window; `One(0)` is also the empty set, which has none.
    One(u64),
    /// A window of two words or more, at its exact width.
    Many(Box<[u64]>),
}

/// A growable bitset over `usize` ids, packed into 64-bit words starting at
/// a per-row word offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitSet {
    /// Index of the first word the window covers (ids `base*64..`).
    base: usize,
    words: Words,
}

impl Default for BitSet {
    fn default() -> BitSet {
        BitSet {
            base: 0,
            words: Words::One(0),
        }
    }
}

impl BitSet {
    /// An empty set.
    pub fn new() -> BitSet {
        BitSet::default()
    }

    /// The window's words; none for the empty set.
    fn words(&self) -> &[u64] {
        match &self.words {
            Words::One(0) => &[],
            Words::One(w) => std::slice::from_ref(w),
            Words::Many(ws) => ws,
        }
    }

    /// Grow the window so it covers word indices `lo..=hi`, in one step.
    fn cover(&mut self, lo: usize, hi: usize) {
        let old = self.words();
        if old.is_empty() {
            self.base = lo;
            self.words = match hi - lo {
                0 => Words::One(0),
                n => Words::Many(vec![0; n + 1].into_boxed_slice()),
            };
            return;
        }
        let end = self.base + old.len();
        let (lo, end) = (lo.min(self.base), end.max(hi + 1));
        if (lo, end) == (self.base, self.base + old.len()) {
            return;
        }
        let mut wider = vec![0; end - lo].into_boxed_slice();
        wider[self.base - lo..][..old.len()].copy_from_slice(old);
        self.base = lo;
        self.words = Words::Many(wider);
    }

    /// The word at index `w`, which the window covers.
    fn word_mut(&mut self, w: usize) -> &mut u64 {
        match &mut self.words {
            Words::One(word) => word,
            Words::Many(ws) => &mut ws[w - self.base],
        }
    }

    /// Insert `i`; returns true if it was not already present.
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        self.cover(w, w);
        let mask = 1u64 << b;
        let word = self.word_mut(w);
        let had = *word & mask != 0;
        *word |= mask;
        !had
    }

    /// True if `i` is present.
    pub fn contains(&self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        if w < self.base {
            return false;
        }
        self.words()
            .get(w - self.base)
            .is_some_and(|x| x & (1u64 << b) != 0)
    }

    /// Union `other` into `self`; returns true if `self` grew.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        // Only `other`'s occupied extent is aligned, so a row that was once
        // widened but since stayed sparse doesn't force this row's window
        // open.
        let (lo, theirs) = other.occupied();
        if theirs.is_empty() {
            return false;
        }
        self.cover(lo, lo + theirs.len() - 1);
        let mut grew = false;
        for (k, &b) in theirs.iter().enumerate() {
            if b == 0 {
                continue;
            }
            let a = self.word_mut(lo + k);
            let merged = *a | b;
            grew |= merged != *a;
            *a = merged;
        }
        grew
    }

    /// True when every id of `self` is in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        let theirs = other.words();
        self.words().iter().enumerate().all(|(k, &w)| {
            let at = (self.base + k).checked_sub(other.base);
            w & !at.and_then(|i| theirs.get(i)).unwrap_or(&0) == 0
        })
    }

    /// True when some id is in both sets. Only the words both windows cover
    /// are compared.
    pub fn intersects(&self, other: &BitSet) -> bool {
        let (mine, theirs) = (self.words(), other.words());
        let lo = self.base.max(other.base);
        let hi = (self.base + mine.len()).min(other.base + theirs.len());
        (lo..hi).any(|w| mine[w - self.base] & theirs[w - other.base] != 0)
    }

    /// The occupied extent: index of the first non-zero word and the words
    /// from it through the last non-zero one.
    fn occupied(&self) -> (usize, &[u64]) {
        let words = self.words();
        match words.iter().position(|&w| w != 0) {
            None => (0, &[]),
            Some(lo) => {
                let hi = words.iter().rposition(|&w| w != 0).unwrap_or(lo);
                (self.base + lo, &words[lo..=hi])
            }
        }
    }

    /// True when both sets hold exactly the same ids. Unlike `==`, which
    /// compares representations, this ignores how far each row's window
    /// happens to extend past its occupied words.
    pub fn same_set(&self, other: &BitSet) -> bool {
        self.occupied() == other.occupied()
    }

    /// True when no id is present.
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Number of ids present.
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let base = self.base;
        self.words().iter().enumerate().flat_map(move |(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some((base + wi) * 64 + b)
            })
        })
    }

    /// Heap bytes backing this row: none for a one-word window.
    pub fn heap_bytes(&self) -> usize {
        match &self.words {
            Words::One(_) => 0,
            Words::Many(ws) => ws.len() * 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn insert_contains_iter_match_btreeset() {
        let ids = [0usize, 1, 63, 64, 65, 130, 1000, 64, 0];
        let mut bs = BitSet::new();
        let mut reference = BTreeSet::new();
        for &i in &ids {
            assert_eq!(bs.insert(i), reference.insert(i), "insert {i}");
        }
        assert_eq!(bs.len(), reference.len());
        assert_eq!(
            bs.iter().collect::<Vec<_>>(),
            reference.iter().copied().collect::<Vec<_>>()
        );
        for i in 0..1100 {
            assert_eq!(bs.contains(i), reference.contains(&i), "contains {i}");
        }
        assert!(!bs.is_empty());
        assert!(BitSet::new().is_empty());
    }

    #[test]
    fn high_first_insert_keeps_window_small() {
        // A row whose first id is high must not allocate words from zero.
        let mut bs = BitSet::new();
        bs.insert(1_000_000);
        assert!(
            bs.heap_bytes() <= 64,
            "window not applied: {}",
            bs.heap_bytes()
        );
        assert!(bs.contains(1_000_000));
        assert!(!bs.contains(0));
        assert!(!bs.contains(999_935));
        // Growing downward afterwards still works.
        bs.insert(3);
        assert_eq!(bs.iter().collect::<Vec<_>>(), vec![3, 1_000_000]);
        assert_eq!(bs.len(), 2);
    }

    #[test]
    fn union_reports_growth() {
        let mut a = BitSet::new();
        a.insert(3);
        a.insert(200);
        let mut b = BitSet::new();
        b.insert(3);
        assert!(!b.is_empty());
        // b ∪ a grows b; a ∪ b does not grow a.
        assert!(b.union_with(&a));
        assert!(!a.union_with(&b));
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![3, 200]);
        // Unioning an equal set is a no-op.
        assert!(!b.union_with(&a));
    }

    #[test]
    fn subset_ignores_window_shape() {
        let mut small = BitSet::new();
        small.insert(700);
        let mut big = BitSet::new();
        big.insert(5);
        big.insert(700);
        assert!(small.is_subset(&big) && !big.is_subset(&small));
        assert!(BitSet::new().is_subset(&small) && !small.is_subset(&BitSet::new()));
        // A window opened downward and never filled is still no member.
        small.insert(3);
        assert!(!small.is_subset(&big));
        big.insert(3);
        assert!(small.is_subset(&big) && big.is_subset(&big));
    }

    #[test]
    fn intersects_reads_only_the_shared_window() {
        let mut a = BitSet::new();
        a.insert(5);
        a.insert(10_000);
        let mut b = BitSet::new();
        b.insert(6);
        b.insert(9_999);
        assert!(!a.intersects(&b) && !b.intersects(&a));
        b.insert(10_000);
        assert!(a.intersects(&b) && b.intersects(&a));
        // Windows that do not overlap at all, and empty sets.
        let mut far = BitSet::new();
        far.insert(1_000_000);
        assert!(!a.intersects(&far) && !far.intersects(&a));
        assert!(!a.intersects(&BitSet::new()) && !BitSet::new().intersects(&a));
        assert!(far.intersects(&far));
    }

    #[test]
    fn union_aligns_disjoint_windows() {
        let mut hi = BitSet::new();
        hi.insert(10_000);
        let mut lo = BitSet::new();
        lo.insert(5);
        assert!(hi.union_with(&lo));
        assert_eq!(hi.iter().collect::<Vec<_>>(), vec![5, 10_000]);
        let empty = BitSet::new();
        assert!(!hi.union_with(&empty));
        let mut into_empty = BitSet::new();
        assert!(into_empty.union_with(&hi));
        assert_eq!(into_empty.iter().collect::<Vec<_>>(), vec![5, 10_000]);
    }

    #[test]
    fn same_set_ignores_window_shape() {
        // Same ids reached through different growth orders: the windows
        // differ (one was opened downward, one upward), the sets do not.
        let mut a = BitSet::new();
        a.insert(700);
        a.insert(5);
        let mut b = BitSet::new();
        b.insert(5);
        b.insert(700);
        b.insert(9000);
        assert!(!a.same_set(&b));
        let mut c = BitSet::new();
        c.union_with(&a);
        assert!(a.same_set(&c) && c.same_set(&a));
        assert!(BitSet::new().same_set(&BitSet::default()));
        assert!(!a.same_set(&BitSet::new()));
    }

    #[test]
    fn only_a_wide_window_holds_heap_bytes() {
        let mut a = BitSet::new();
        assert_eq!(a.heap_bytes(), 0);
        a.insert(512);
        a.insert(575);
        assert_eq!(a.heap_bytes(), 0, "a one-word row keeps its word inline");
        a.insert(576);
        assert_eq!(
            a.heap_bytes(),
            16,
            "a two-word row is two words on the heap"
        );
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![512, 575, 576]);
        // The row table holds a base and either the word or the box.
        assert!(size_of::<BitSet>() <= 24, "{} bytes", size_of::<BitSet>());
    }

    /// SplitMix64: a seeded stream with no dependency.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Every public method against a `BTreeSet` model, over rows that start
    /// one word wide and widen up, down and across disjoint windows.
    #[test]
    fn every_method_matches_a_btreeset_model() {
        // Ids cluster in bands far apart, as a large module's rows do.
        const BANDS: [usize; 4] = [0, 3 * 64, 40 * 64, 1000 * 64];
        let window = |m: &BTreeSet<usize>| match (m.first(), m.last()) {
            (Some(lo), Some(hi)) => hi / 64 - lo / 64 + 1,
            _ => 0,
        };
        let (mut up, mut down, mut disjoint) = (0, 0, 0);
        for seed in 0..64 {
            let mut rng = Rng(seed);
            let mut rows = vec![BitSet::new(); 6];
            let mut model = vec![BTreeSet::new(); 6];
            for _ in 0..200 {
                let (a, b) = (rng.below(rows.len()), rng.below(rows.len()));
                let before = model[a].clone();
                if rng.below(3) == 0 {
                    let (x, y) = (model[a].clone(), model[b].clone());
                    if let (Some(x0), Some(x1), Some(y0), Some(y1)) =
                        (x.first(), x.last(), y.first(), y.last())
                    {
                        disjoint += usize::from(x1 / 64 < y0 / 64 || y1 / 64 < x0 / 64);
                    }
                    let other = rows[b].clone();
                    model[a].extend(y);
                    assert_eq!(rows[a].union_with(&other), model[a] != x, "seed {seed}");
                } else {
                    let band = BANDS[rng.below(BANDS.len())];
                    let id = band + rng.below(200);
                    assert_eq!(rows[a].insert(id), model[a].insert(id), "seed {seed}");
                }
                if window(&before) == 1 && window(&model[a]) > 1 {
                    if model[a].first() < before.first() {
                        down += 1;
                    } else {
                        up += 1;
                    }
                }
                for k in [a, b] {
                    let (row, set) = (&rows[k], &model[k]);
                    assert_eq!(row.len(), set.len());
                    assert_eq!(row.is_empty(), set.is_empty());
                    assert!(row.iter().eq(set.iter().copied()), "seed {seed}");
                    let heap = match window(set) {
                        0 | 1 => 0,
                        w => 8 * w,
                    };
                    assert_eq!(row.heap_bytes(), heap, "seed {seed}: {set:?}");
                    let probe = BANDS[rng.below(BANDS.len())] + rng.below(260);
                    for i in [probe, probe.saturating_sub(64), probe + 64] {
                        assert_eq!(row.contains(i), set.contains(&i), "seed {seed}: {i}");
                    }
                }
                let (x, y) = (&model[a], &model[b]);
                let (ra, rb) = (&rows[a], &rows[b]);
                assert_eq!(ra.is_subset(rb), x.is_subset(y), "seed {seed}");
                assert_eq!(rb.is_subset(ra), y.is_subset(x), "seed {seed}");
                assert_eq!(ra.intersects(rb), !x.is_disjoint(y), "seed {seed}");
                assert_eq!(ra.same_set(rb), x == y, "seed {seed}");
                // No row ever shrinks, so its window is its occupied extent
                // and `==` is set equality too.
                assert_eq!(ra == rb, x == y, "seed {seed}");
            }
        }
        assert!(
            up > 0 && down > 0 && disjoint > 0,
            "one-word rows widened up {up} and down {down} times, {disjoint} disjoint unions"
        );
    }
}
