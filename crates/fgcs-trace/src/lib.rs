#![warn(missing_docs)]
//! # fgcs-trace
//!
//! Synthetic host-workload trace generation — the substitute for the
//! unpublished 3-month Purdue lab trace the paper's evaluation is built on
//! (§6.1: ~1800 machine-days from a student computer laboratory, sampled
//! every 6 seconds, 405–453 unavailability occurrences per machine).
//!
//! The generator composes, per machine-day:
//!
//! * **interactive sessions** ([`session`]) arriving as an inhomogeneous
//!   Poisson process shaped by an hourly activity curve ([`profile`]),
//!   each driving the CPU through idle/light/medium/heavy segments and
//!   holding memory,
//! * **background load** — a daemon baseline plus short transient spikes
//!   that exercise the availability model's transient-folding path,
//! * **revocations** ([`revocation`]) — console reboots correlated with
//!   user presence, plus uniform crashes.
//!
//! Everything is deterministic from `(seed, machine_id)`. [`noise`]
//! implements the §7.3 noise-injection protocol and [`stats`] the summary
//! statistics used to calibrate the generator against the paper's reported
//! testbed numbers.

pub mod generator;
pub mod noise;
pub mod profile;
pub mod resample;
pub mod revocation;
pub mod session;
pub mod stats;
pub mod trace;

pub use generator::{generate_cluster, TraceConfig, TraceGenerator};
pub use noise::NoiseInjector;
pub use profile::MachineProfile;
pub use resample::resample;
pub use stats::{daily_pattern_similarity, TraceStats};
pub use trace::MachineTrace;

// Re-export the observable sample type for convenience: traces are built
// from the core crate's `LoadSample`s.
pub use fgcs_core::model::LoadSample;
