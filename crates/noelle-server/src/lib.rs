//! # noelle-server
//!
//! A persistent, concurrent NOELLE analysis daemon. The paper's pitch is
//! that expensive abstractions — PDG, SCCDAG, call graph, induction
//! variables — are built once, demand-driven, and shared by many small
//! custom tools. A one-shot CLI throws those caches away on every exit;
//! this crate keeps them resident: `noelle-served` holds a table of loaded
//! modules, each behind a warm [`Noelle`](noelle_core::noelle::Noelle)
//! manager, and serves `load` / `pdg` / `sccdag` / `loops` / `induction` /
//! `invariants` / `callgraph` / `run-tool` / `stats` queries
//! from many clients over localhost TCP.
//!
//! Production-shaping properties:
//!
//! - **Framed wire protocol** ([`protocol`]): 4-byte length-prefixed JSON,
//!   hardened against trailing garbage and oversized frames.
//! - **Session sharding** ([`server`]): sessions hash-route across shards,
//!   each owning a table slice, a bounded request queue, and its share of
//!   the worker pool; connections are cheap readers.
//! - **Admission control** ([`server`]): a full shard queue sheds new
//!   requests with a structured `overloaded` error instead of growing the
//!   tail, keeping latency bounded for admitted work.
//! - **In-flight coalescing** ([`session`]): concurrent identical builds
//!   share one execution via the per-session build lock; warm `pdg`
//!   replies are served from a serialized-reply cache.
//! - **LRU eviction** ([`session`]): entry and byte budgets bound resident
//!   memory.
//! - **Deadlines**: every request gets a timeout error instead of a hung
//!   connection.
//! - **Observability** ([`metrics`]): one `stats` reply carries per-method
//!   counters and latency quantiles, per-shard queue depth and shed counts,
//!   per-session build/cache counters, and the
//!   daemon-wide IDE, audit and plan counters, each number once.
//! - **Graceful shutdown**: queued requests drain before workers exit.

pub mod client;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod session;

pub use client::Client;
pub use server::{RunningServer, Server, ServerConfig, ToolRunner};
