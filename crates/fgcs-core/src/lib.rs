#![warn(missing_docs)]
// Library code must surface errors through `CoreError`, not panic: an
// `unwrap()` on a volunteer host's data path is exactly the brittleness
// the robustness layer exists to remove. Tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
//! # fgcs-core
//!
//! The primary contribution of *Ren, Lee, Eigenmann, Bagchi: "Resource
//! Availability Prediction in Fine-Grained Cycle Sharing Systems"
//! (HPDC 2006)*:
//!
//! * a **five-state resource availability model** ([`state::State`],
//!   [`model::AvailabilityModel`]) combining unavailability due to excessive
//!   resource contention (UEC: CPU overload S3, memory thrashing S4) with
//!   unavailability due to resource revocation (URR: S5),
//! * **classification** of monitor samples into those states with
//!   transient-spike folding ([`classify::StateClassifier`]),
//! * per-day **history logs** and the store the statistics are drawn from
//!   ([`log::HistoryStore`]),
//! * a **discrete-time semi-Markov process** whose parameters (`Q`, `H`)
//!   are estimated from the corresponding windows of the most recent
//!   same-type days ([`smp::SmpParams`]), and the sparse Eq.-3 solver for
//!   the interval transition probabilities ([`smp::SparseSolver`]),
//! * the end-to-end **temporal reliability predictor** and its evaluation
//!   harness ([`predictor::SmpPredictor`], [`predictor::evaluate_window`]),
//! * **graceful degradation** for corrupted or missing history: lossy
//!   ingestion ([`log::HistoryStore::from_samples_lossy`]) and the tagged
//!   fallback chain ([`robust::RobustPredictor`]),
//! * a **sharded streaming registry** for long-running serving: hash-by-host
//!   shards, per-shard kernel caches, an append-only ingest log, and O(1)
//!   incremental Q/H updates ([`registry::ShardedRegistry`],
//!   [`smp::IncrementalEstimator`]).
//!
//! Temporal reliability `TR(W)` is the probability that a machine never
//! enters a failure state (S3/S4/S5) throughout a future time window `W` —
//! the quantity a job scheduler uses to place guest jobs on machines with
//! high expected availability.

pub mod batch;
pub mod cache;
pub mod classify;
pub mod error;
pub mod log;
pub mod model;
pub mod predictor;
pub mod registry;
pub mod robust;
pub mod smp;
pub mod state;
pub mod window;

pub use batch::{evaluate_cluster, EvalQuery, TrCurve};
pub use cache::{KernelDedup, QhCache};
pub use classify::StateClassifier;
pub use error::CoreError;
pub use log::{DayLog, HistoryStore, IngestReport, StateLog};
pub use model::{AvailabilityModel, LoadSample};
pub use predictor::{
    empirical_tr, evaluate_window, evaluate_window_markov, SmpPredictor, SolverPolicy,
    TrPrediction, WindowEvaluation,
};
pub use registry::{
    IngestAck, RegistryConfig, RegistryError, RegistryStats, ShardSession, ShardedRegistry,
};
pub use robust::{PredictionQuality, QualifiedTr, RobustPredictor, DEFAULT_PRIOR_TR};
pub use smp::{
    DenseSolver, FastSolver, IncrementalEstimator, IntervalProbs, MarkovChain, SmpParams,
    SojournAccumulator, SolveScratch, SparseSolver,
};
pub use state::State;
pub use window::{DayType, TimeWindow, SECS_PER_DAY};
