//! Std-only runtime substrate for the FGCS workspace.
//!
//! The paper reproduction must build and test with **no network access and an
//! empty cargo registry**: every service an external crate used to provide is
//! implemented here on `std` alone.
//!
//! - [`rng`] — a seedable, portable xoshiro256++ generator behind a small
//!   [`rng::Rng`] trait (replaces `rand` + `rand_chacha`).
//! - [`dist`] — distribution adapters (exponential, lognormal, Pareto,
//!   truncated normal, Poisson, …) generic over [`rng::Rng`].
//! - [`json`] — a minimal JSON value model, parser and writer with
//!   float-round-trip-safe formatting (replaces `serde` + `serde_json`).
//! - [`parallel`] — scoped fork/join helpers on [`std::thread::scope`]
//!   (replaces `crossbeam::scope` / `parking_lot`).
//! - [`check`] — a seeded, shrink-free property-test harness (replaces
//!   `proptest` for the workspace's invariant suites).
//! - [`cache`] — a capacity-bounded O(1) LRU cache (replaces the `lru`
//!   crate for kernel-parameter memoization).
//! - [`fault`] — a seeded, fully deterministic fault-injection plan for
//!   robustness campaigns (corrupt values, dropped/duplicated/stuck
//!   samples, monitor outages, truncated days, node blackouts).
//! - [`shard`] — deterministic hash-by-key shard routing for the
//!   partitioned serving registry (replaces ad-hoc `DefaultHasher` use,
//!   which is not stable across runs).
//! - [`wal`] — length-prefixed, CRC32-checksummed write-ahead-log
//!   framing with a configurable fsync cadence and a torn-tail-tolerant
//!   reader (the durability substrate under the serving registry).
//! - [`metrics`] — counters, gauges, log2 histograms, span timers and a
//!   process-wide registry with byte-stable JSON export (replaces
//!   `metrics` + `prometheus`-style client crates). Compile-time zero-cost
//!   when the `metrics` feature is off; run-time gated off by default.
//!
//! Everything is deterministic given a seed: the same seed produces the same
//! byte stream on every platform, which is what makes the generated traces
//! and the paper figures reproducible.

pub mod cache;
pub mod check;
pub mod dist;
pub mod fault;
pub mod json;
pub mod metrics;
pub mod parallel;
pub mod rng;
pub mod shard;
pub mod wal;

pub use json::{FromJson, Json, JsonError, ToJson};
pub use rng::{Rng, Xoshiro256};
