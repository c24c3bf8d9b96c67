//! Content-addressed store keys.
//!
//! A [`StoreKey`] names an artifact by *what produced it*, never by
//! position: the store format revision, the artifact kind, the
//! alias-analysis tier, and the content fingerprints of everything the
//! artifact's computation read. Identical inputs always map to the same
//! key (a warm restart hits); any differing input maps elsewhere (a stale
//! entry is simply never addressed, no invalidation protocol needed).

use std::fmt;
use std::hash::{Hash, Hasher};

/// Store format revision. Baked into every key, so bumping it orphans all
/// previously written entries (they become unreferenced, never read)
/// instead of requiring a migration. Bump whenever an
/// artifact encoding or the key derivation itself changes.
pub const STORE_REVISION: u32 = 3;

/// What kind of artifact a payload decodes as.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum ArtifactKind {
    /// One function's PDG partition (`DepGraph<InstId>`), interprocedural.
    PdgPartition = 1,
}

impl ArtifactKind {
    /// Decode the on-disk tag byte. Tags `2` and `3` stay reserved:
    /// revision-1 stores wrote points-to rows under `2`, revisions up to 2
    /// loop forests under `3`.
    pub fn from_tag(tag: u8) -> Option<ArtifactKind> {
        match tag {
            1 => Some(ArtifactKind::PdgPartition),
            _ => None,
        }
    }
}

/// A 128-bit content address.
///
/// Derived as two independent 64-bit SipHash runs (distinct domain tags)
/// over the same key material. 128 bits makes accidental collision
/// negligible at any realistic store size; the hash need not be
/// cryptographic because the store directory is trusted local state.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct StoreKey(pub [u8; 16]);

impl StoreKey {
    fn half(tag: u64, kind: ArtifactKind, tier: u8, fps: [u64; 3]) -> u64 {
        // DefaultHasher is SipHash-1-3 with fixed keys: stable across
        // processes and runs, which is exactly what a durable key needs.
        let mut h = std::collections::hash_map::DefaultHasher::new();
        tag.hash(&mut h);
        STORE_REVISION.hash(&mut h);
        (kind as u8).hash(&mut h);
        tier.hash(&mut h);
        fps.hash(&mut h);
        h.finish()
    }

    fn derive(kind: ArtifactKind, tier: u8, fps: [u64; 3]) -> StoreKey {
        let lo = StoreKey::half(0x6e6f_656c_6c65_3031, kind, tier, fps);
        let hi = StoreKey::half(0x6e6f_656c_6c65_3032, kind, tier, fps);
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&lo.to_le_bytes());
        bytes[8..].copy_from_slice(&hi.to_le_bytes());
        StoreKey(bytes)
    }
}

impl fmt::Display for StoreKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// The module-wide inputs of key derivation, computed once per module
/// state and reused for every per-function key.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct KeyCtx {
    /// `Module::globals_fingerprint()`.
    pub globals_fp: u64,
    /// Order-independent fingerprint of every defined function's
    /// content fingerprint (see [`KeyCtx::module_code_fp`]).
    pub module_code_fp: u64,
    /// Alias-analysis tier the artifacts were computed under, as a stable
    /// small integer.
    pub tier: u8,
}

impl KeyCtx {
    /// Combine per-function fingerprints into the module-wide code
    /// fingerprint. XOR of per-function SipHash mixes is order-independent,
    /// so function reordering (which changes no analysis result) does not
    /// shift keys.
    pub fn module_code_fp(func_fps: impl IntoIterator<Item = u64>) -> u64 {
        let mut acc = 0u64;
        for fp in func_fps {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            fp.hash(&mut h);
            acc ^= h.finish();
        }
        acc
    }

    /// Key of one function's PDG partition. Interprocedural: includes the
    /// module-wide code fingerprint, so any edit anywhere misses.
    pub fn partition_key(&self, func_fp: u64) -> StoreKey {
        StoreKey::derive(
            ArtifactKind::PdgPartition,
            self.tier,
            [self.globals_fp, self.module_code_fp, func_fp],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> KeyCtx {
        KeyCtx {
            globals_fp: 11,
            module_code_fp: 22,
            tier: 2,
        }
    }

    #[test]
    fn keys_are_stable_and_distinct() {
        let c = ctx();
        assert_eq!(c.partition_key(7), c.partition_key(7));
        assert_ne!(c.partition_key(7), c.partition_key(8));
        let other_tier = KeyCtx { tier: 1, ..c };
        assert_ne!(c.partition_key(7), other_tier.partition_key(7));
        // Interprocedural: an edit anywhere in the module moves the key.
        let edited = KeyCtx {
            module_code_fp: 99,
            ..c
        };
        assert_ne!(c.partition_key(7), edited.partition_key(7));
    }

    #[test]
    fn module_code_fp_is_order_independent() {
        let a = KeyCtx::module_code_fp([1, 2, 3]);
        let b = KeyCtx::module_code_fp([3, 1, 2]);
        assert_eq!(a, b);
        assert_ne!(a, KeyCtx::module_code_fp([1, 2]));
        // XOR is over *mixed* fingerprints, so duplicate-cancellation
        // requires identical functions, which hash identically anyway.
        assert_eq!(KeyCtx::module_code_fp([5, 5]), 0);
    }

    #[test]
    fn kind_tags_round_trip() {
        let kind = ArtifactKind::PdgPartition;
        assert_eq!(ArtifactKind::from_tag(kind as u8), Some(kind));
        assert_eq!(ArtifactKind::from_tag(0), None);
        assert_eq!(ArtifactKind::from_tag(2), None, "reserved, never reused");
        assert_eq!(ArtifactKind::from_tag(3), None, "reserved, never reused");
        assert_eq!(ArtifactKind::from_tag(9), None);
    }
}
