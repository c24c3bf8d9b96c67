//! # noelle-store
//!
//! A content-addressed, on-disk cache of PDG partitions behind the
//! `noelle_core` manager: `Noelle::set_store` attaches one, after which a
//! partition miss consults the store before building and a built partition
//! is written back in the background. Only the manager talks to it; the
//! benchmark's store probe measures a warm start against a cold build.
//!
//! ## Addressing
//!
//! Artifacts are addressed by *content*, never by name: a [`StoreKey`] is a
//! 128-bit hash over the store format revision, the artifact kind, the
//! alias-analysis tier, the module's globals fingerprint, a module-wide
//! code fingerprint, and the owning function's content fingerprint
//! (`Function::fingerprints`). PDG partitions are interprocedural — a
//! partition embeds callee mod/ref summaries and global points-to facts —
//! so their keys include the module-wide code fingerprint: any edit
//! anywhere misses (falling back to the in-memory incremental engine),
//! while an identical module always hits. Partitions are the one artifact
//! kind: a loop forest is cheaper to build over the dominator tree its
//! function needs anyway than to look up, check and decode, so it is not
//! stored.
//!
//! ## Durability
//!
//! The store is a directory of append-only segment files (`seg-N.nsg`).
//! Writes are batched by a background thread and each batch is published
//! atomically: written to a temp file, fsynced, then renamed into place —
//! a reader (or a crashed writer) never observes a half-written segment.
//! Every entry carries a CRC-32 over its header and payload; a truncated or
//! bit-flipped entry is detected on open (or read) and treated exactly like
//! a miss. Corruption can cost a recompute, never a wrong answer: the
//! payload codecs ([`noelle_ir::bytes`]) are total, and anything that fails
//! to decode is recomputed and overwritten.
//!
//! [`Store::fsck`] reports per-segment health (live, superseded, corrupt)
//! without opening the store.

pub mod artifact;
pub mod crc;
pub mod key;
pub mod segment;
pub mod store;

pub use key::{ArtifactKind, KeyCtx, StoreKey, STORE_REVISION};
pub use store::{FsckReport, SegmentReport, Store, StoreStats};
