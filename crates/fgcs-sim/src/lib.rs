#![warn(missing_docs)]
//! # fgcs-sim
//!
//! A discrete-event simulation of an iShare-style fine-grained cycle
//! sharing system (paper §5, Figure 2) — the substitute for the authors'
//! unreleased production system:
//!
//! * [`contention`] — the analytic CPU/memory contention models that stand
//!   in for the §3.2 empirical studies (and from which `Th1`/`Th2` emerge),
//! * [`monitor`] — the non-intrusive Resource Monitor with heartbeat-gap
//!   URR detection (§5.2),
//! * [`state_manager`] — online state classification, history logging and
//!   the prediction endpoint (one quality-tagged Eq.-3 answer per query),
//! * [`gateway`] — the guest control ladder as one stateless function of
//!   the manager's decision: renice → suspend → resume / terminate,
//! * [`guest`] — CPU-bound guest jobs with optional checkpointing,
//!   [`checkpoint`] — failure-aware (prediction-driven) checkpoint policies,
//!   and [`migration`] — proactive migration off a host whose predicted
//!   reliability collapses,
//! * [`node`] / [`cluster`] — one host node replaying a trace, and a fleet
//!   of them running a workload,
//! * [`scheduler`] — the client-side Job Scheduler with the proactive
//!   (max-reliability) policy and prediction-oblivious baselines, and the
//!   one reliability horizon every placement, migration check and campaign
//!   asks TR over,
//! * [`chaos`] — seeded fault-injection campaigns over a fixed workload
//!   asserting the robustness invariants (no panics, in-range TRs,
//!   deterministic reports, zero-fault ≡ unfaulted).

pub mod chaos;
pub mod checkpoint;
pub mod cluster;
pub mod contention;
pub mod gateway;
pub mod guest;
pub mod migration;
pub mod monitor;
pub mod node;
pub mod scheduler;
pub mod state_manager;

pub use chaos::{run_campaign, ChaosConfig, ChaosReport};
pub use checkpoint::{youngs_interval, CheckpointPolicy};
pub use cluster::{group_records, Cluster, GroupRecord, JobRecord, JobSpec};
pub use contention::{CpuContentionModel, GuestPriority, MemoryModel};
pub use gateway::GuestAction;
pub use guest::{CheckpointConfig, GuestJob, GuestOutcome, GuestStatus};
pub use migration::MigrationPolicy;
pub use monitor::{MonitorReport, ResourceMonitor};
pub use node::{GuestRecord, HostNode, QueryError};
pub use scheduler::{predict_cluster_qualified, JobScheduler, SchedulingPolicy};
pub use state_manager::{OnlineDecision, StateManager};
