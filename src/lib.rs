#![warn(missing_docs)]
// Same policy as fgcs-core: library code (the serve wire path in
// particular) surfaces errors through typed results instead of panicking.
// Tests are exempt; doc examples compile as separate crates and keep
// `unwrap()` for brevity.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
//! # fgcs — Resource Availability Prediction in Fine-Grained Cycle Sharing Systems
//!
//! This is the facade crate of a full reproduction of
//! *Ren, Lee, Eigenmann, Bagchi: "Resource Availability Prediction in
//! Fine-Grained Cycle Sharing Systems" (HPDC 2006)*.
//!
//! It re-exports the workspace crates:
//!
//! * [`core`] — the paper's contribution: the five-state availability model and
//!   the semi-Markov-process (SMP) temporal-reliability predictor,
//! * [`trace`] — synthetic host-workload trace generation (the substitute for
//!   the unpublished 3-month Purdue lab trace),
//! * [`timeseries`] — the linear time-series baselines (AR/BM/MA/ARMA/LAST),
//! * [`sim`] — a discrete-event simulation of an iShare-style FGCS node
//!   (resource monitor, state manager, gateway, job scheduler),
//! * [`math`] — the small numerics layer everything above is built on,
//! * [`runtime`] — the std-only substrate (seedable PRNG, JSON, scoped
//!   parallelism) that keeps the workspace free of external dependencies.
//!
//! On top of the re-exports, [`serve`] implements the long-running
//! prediction service: a JSON-lines protocol (ingest/predict/sweep) over
//! the sharded streaming registry, served oneshot from stdin or over TCP,
//! with write-ahead durability and crash recovery when a data directory is
//! configured. [`serve_chaos`] drives a real server process through
//! byte-level client faults and a `SIGKILL` to verify the recovery
//! invariant end to end (`fgcs chaos --serve`).
//!
//! A command-line front end ships as the `fgcs` binary (`src/bin/fgcs.rs`):
//! `fgcs generate | stats | predict | sweep | evaluate | serve | query`.
//!
//! ## Quickstart
//!
//! ```
//! use fgcs::prelude::*;
//!
//! // Generate a synthetic 14-day trace for one lab machine.
//! let cfg = TraceConfig::lab_machine(7 /* seed */);
//! let trace = TraceGenerator::new(cfg).generate_days(14);
//!
//! // Classify the samples into the 5-state availability model and build history.
//! let model = AvailabilityModel::default();
//! let history = trace.to_history(&model).unwrap();
//!
//! // Predict temporal reliability for a 2-hour window starting 09:00 on a weekday.
//! let window = TimeWindow::from_hours(9.0, 2.0);
//! let predictor = SmpPredictor::new(model);
//! let tr = predictor
//!     .predict(&history, DayType::Weekday, window, State::S1)
//!     .unwrap();
//! assert!((0.0..=1.0).contains(&tr));
//! ```

pub mod serve;
pub mod serve_chaos;

pub use fgcs_core as core;
pub use fgcs_math as math;
pub use fgcs_runtime as runtime;
pub use fgcs_sim as sim;
pub use fgcs_timeseries as timeseries;
pub use fgcs_trace as trace;

/// Convenience re-exports of the most commonly used items across the workspace.
pub mod prelude {
    pub use fgcs_core::{
        classify::StateClassifier,
        log::{DayLog, HistoryStore, StateLog},
        model::AvailabilityModel,
        predictor::{empirical_tr, SmpPredictor, TrPrediction},
        robust::{PredictionQuality, QualifiedTr, RobustPredictor},
        smp::{FastSolver, MarkovChain, SmpParams, SparseSolver},
        state::State,
        window::{DayType, TimeWindow},
    };
    pub use fgcs_runtime::fault::{FaultInjector, FaultPlan};
    pub use fgcs_runtime::rng::{Rng, Xoshiro256};
    pub use fgcs_sim::{
        run_campaign, ChaosConfig, ChaosReport, CheckpointConfig, CheckpointPolicy, Cluster,
        CpuContentionModel, GuestJob, GuestOutcome, GuestPriority, HostNode, JobRecord,
        JobScheduler, JobSpec, MemoryModel, MigrationPolicy, QueryError, SchedulingPolicy,
    };
    pub use fgcs_timeseries::{
        paper_lineup, ArModel, ArmaModel, BmModel, LastModel, MaModel, TimeSeriesModel,
    };
    pub use fgcs_trace::{
        generate_cluster, LoadSample, MachineTrace, NoiseInjector, TraceConfig, TraceGenerator,
        TraceStats,
    };
}
