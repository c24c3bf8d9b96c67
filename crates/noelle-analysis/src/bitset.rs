//! Sparse bitset rows for the points-to solver.
//!
//! Andersen's analysis is dominated by set unions over small-integer object
//! ids. A `BTreeSet<usize>` pays a pointer chase and an allocation per
//! element; a packed `Vec<u64>` pays one word per 64 ids and unions with a
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

/// A growable bitset over `usize` ids, packed into 64-bit words starting at
/// a per-row word offset.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitSet {
    /// Index of the first word `words[0]` covers (ids `base*64..`).
    base: usize,
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set.
    pub fn new() -> BitSet {
        BitSet::default()
    }

    /// Grow the window so it covers word index `w`.
    fn cover(&mut self, w: usize) {
        if self.words.is_empty() {
            self.base = w;
            self.words.push(0);
        } else if w < self.base {
            let shift = self.base - w;
            let old = std::mem::take(&mut self.words);
            self.words = vec![0; old.len() + shift];
            self.words[shift..].copy_from_slice(&old);
            self.base = w;
        } else if w >= self.base + self.words.len() {
            self.words.resize(w - self.base + 1, 0);
        }
    }

    /// Insert `i`; returns true if it was not already present.
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        self.cover(w);
        let mask = 1u64 << b;
        let word = &mut self.words[w - self.base];
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
        self.words
            .get(w - self.base)
            .is_some_and(|x| x & (1u64 << b) != 0)
    }

    /// Union `other` into `self`; returns true if `self` grew.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        if other.words.is_empty() {
            return false;
        }
        // Trim `other`'s window to its occupied extent before aligning, so
        // a row that was once widened but since stayed sparse doesn't force
        // this row's window open.
        let lo = match other.words.iter().position(|&w| w != 0) {
            Some(i) => i,
            None => return false,
        };
        let hi = other.words.iter().rposition(|&w| w != 0).unwrap();
        self.cover(other.base + lo);
        self.cover(other.base + hi);
        let mut grew = false;
        for k in lo..=hi {
            let b = other.words[k];
            if b == 0 {
                continue;
            }
            let a = &mut self.words[other.base + k - self.base];
            let merged = *a | b;
            grew |= merged != *a;
            *a = merged;
        }
        grew
    }

    /// True when every id of `self` is in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.words.iter().enumerate().all(|(k, &w)| {
            let theirs = (self.base + k).checked_sub(other.base);
            w & !theirs.and_then(|i| other.words.get(i)).unwrap_or(&0) == 0
        })
    }

    /// True when some id is in both sets. Only the words both windows cover
    /// are compared.
    pub fn intersects(&self, other: &BitSet) -> bool {
        let lo = self.base.max(other.base);
        let hi = (self.base + self.words.len()).min(other.base + other.words.len());
        (lo..hi).any(|w| self.words[w - self.base] & other.words[w - other.base] != 0)
    }

    /// The occupied extent: index of the first non-zero word and the words
    /// from it through the last non-zero one.
    fn occupied(&self) -> (usize, &[u64]) {
        match self.words.iter().position(|&w| w != 0) {
            None => (0, &[]),
            Some(lo) => {
                let hi = self.words.iter().rposition(|&w| w != 0).unwrap_or(lo);
                (self.base + lo, &self.words[lo..=hi])
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
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of ids present.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let base = self.base;
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
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

    /// Heap bytes backing this row.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * 8
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
    fn heap_bytes_tracks_capacity() {
        let mut a = BitSet::new();
        assert_eq!(a.heap_bytes(), 0);
        a.insert(512);
        assert!(a.heap_bytes() >= 8);
    }
}
