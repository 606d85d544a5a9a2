//! Guest jobs: the CPU-bound batch programs whose response time the whole
//! prediction machinery exists to protect (paper §1: "response time rather
//! than throughput is the primary performance metric").

use fgcs_core::state::State;

use crate::contention::GuestPriority;

/// Checkpointing configuration: periodically persist progress so a kill
/// loses at most one interval (plus the checkpoint overhead).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointConfig {
    /// Seconds of *accomplished work* between checkpoints.
    pub interval_secs: f64,
    /// Work-time cost of taking one checkpoint, in seconds.
    pub cost_secs: f64,
}

/// Why a guest job stopped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GuestOutcome {
    /// The job finished all its work.
    Completed {
        /// Tick at which it completed.
        at_tick: u64,
    },
    /// The job was killed by the gateway.
    Killed {
        /// Tick of the kill.
        at_tick: u64,
        /// The failure state that caused it.
        reason: State,
    },
}

/// Execution status of a guest process on a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GuestStatus {
    /// Running at the given priority.
    Running(GuestPriority),
    /// Temporarily suspended during a transient load spike.
    Suspended,
    /// Finished, one way or the other.
    Finished(GuestOutcome),
}

/// A CPU-bound guest job.
#[derive(Debug, Clone, PartialEq)]
pub struct GuestJob {
    /// Job identifier.
    pub id: u64,
    /// CPU-seconds of work required at full machine speed.
    pub work_secs: f64,
    /// Working-set size in MB.
    pub working_set_mb: f64,
    /// Optional checkpointing.
    pub checkpoint: Option<CheckpointConfig>,
    /// Work accomplished so far (CPU-seconds).
    pub progress_secs: f64,
    /// Work safely persisted by the last checkpoint.
    pub checkpointed_secs: f64,
    /// Work spent on checkpoint overhead so far.
    pub overhead_secs: f64,
    /// CPU-seconds already paid into the checkpoint currently being taken
    /// (checkpoints span multiple monitoring periods).
    checkpoint_paid: f64,
}

impl GuestJob {
    /// Creates a fresh job.
    #[must_use]
    pub fn new(id: u64, work_secs: f64, working_set_mb: f64) -> GuestJob {
        GuestJob {
            id,
            work_secs,
            working_set_mb,
            checkpoint: None,
            progress_secs: 0.0,
            checkpointed_secs: 0.0,
            overhead_secs: 0.0,
            checkpoint_paid: 0.0,
        }
    }

    /// Enables checkpointing.
    #[must_use]
    pub fn with_checkpointing(mut self, cfg: CheckpointConfig) -> GuestJob {
        self.checkpoint = Some(cfg);
        self
    }

    /// Advances the job by `dt_secs` of wall time at the given CPU
    /// allocation (fraction of the machine). Returns `true` when the job
    /// completed within this step. Checkpoints are taken (and paid for)
    /// whenever an interval of new work completes.
    pub fn advance(&mut self, cpu_fraction: f64, dt_secs: f64) -> bool {
        if self.is_complete() {
            return true;
        }
        let mut gained = cpu_fraction.clamp(0.0, 1.0) * dt_secs;
        let Some(cp) = self.checkpoint else {
            self.progress_secs += gained;
            return self.is_complete();
        };
        while gained > 1e-12 && !self.is_complete() {
            let next_boundary = self.checkpointed_secs + cp.interval_secs;
            let at_boundary = self.progress_secs >= next_boundary - 1e-9;
            if at_boundary || self.checkpoint_paid > 0.0 {
                // A checkpoint is in progress; it spans monitoring periods.
                let pay = gained.min(cp.cost_secs - self.checkpoint_paid);
                self.checkpoint_paid += pay;
                self.overhead_secs += pay;
                gained -= pay;
                if self.checkpoint_paid >= cp.cost_secs - 1e-9 {
                    fgcs_runtime::counter_add!("sim.checkpoint.taken", 1);
                    self.checkpointed_secs = self.progress_secs;
                    self.checkpoint_paid = 0.0;
                }
            } else {
                // Run real work up to the next boundary or completion.
                let run = gained
                    .min(next_boundary - self.progress_secs)
                    .min(self.work_secs - self.progress_secs);
                self.progress_secs += run;
                gained -= run;
            }
        }
        self.is_complete()
    }

    /// Rolls progress back to the last checkpoint (or zero), as happens
    /// when the guest is killed and later restarted. A checkpoint that was
    /// in flight is lost.
    pub fn rollback(&mut self) {
        self.progress_secs = self.checkpointed_secs;
        self.checkpoint_paid = 0.0;
    }

    /// Takes an out-of-band checkpoint immediately (used when migrating a
    /// job off a machine): all progress becomes durable.
    pub fn force_checkpoint(&mut self) {
        fgcs_runtime::counter_add!("sim.checkpoint.forced", 1);
        self.checkpointed_secs = self.progress_secs;
        self.checkpoint_paid = 0.0;
    }

    /// Remaining work in CPU-seconds.
    #[must_use]
    pub fn remaining_secs(&self) -> f64 {
        (self.work_secs - self.progress_secs).max(0.0)
    }

    /// Whether all work is done.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.progress_secs >= self.work_secs - 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates_scaled_work() {
        let mut j = GuestJob::new(1, 100.0, 50.0);
        assert!(!j.advance(0.5, 60.0)); // 30s of work
        assert!((j.progress_secs - 30.0).abs() < 1e-9);
        assert!(!j.is_complete());
        assert!(j.advance(1.0, 70.0));
        assert!(j.is_complete());
        assert_eq!(j.remaining_secs(), 0.0);
    }

    #[test]
    fn zero_allocation_makes_no_progress() {
        let mut j = GuestJob::new(1, 10.0, 50.0);
        assert!(!j.advance(0.0, 1000.0));
        assert_eq!(j.progress_secs, 0.0);
    }

    #[test]
    fn rollback_without_checkpoint_restarts_from_scratch() {
        let mut j = GuestJob::new(1, 100.0, 50.0);
        j.advance(1.0, 40.0);
        j.rollback();
        assert_eq!(j.progress_secs, 0.0);
    }

    #[test]
    fn checkpoint_bounds_rollback_loss() {
        let mut j = GuestJob::new(1, 100.0, 50.0).with_checkpointing(CheckpointConfig {
            interval_secs: 20.0,
            cost_secs: 1.0,
        });
        j.advance(1.0, 50.0); // crosses checkpoints at 20 and 40
        assert!(j.checkpointed_secs >= 40.0 - 1e-9);
        assert!(j.overhead_secs >= 2.0 - 1e-9);
        let before = j.progress_secs;
        j.rollback();
        assert!(j.progress_secs <= before);
        assert!((j.progress_secs - j.checkpointed_secs).abs() < 1e-9);
    }

    #[test]
    fn checkpoint_cost_delays_completion() {
        let plain_time = {
            let mut j = GuestJob::new(1, 100.0, 50.0);
            let mut t = 0.0;
            while !j.advance(1.0, 1.0) {
                t += 1.0;
            }
            t
        };
        let cp_time = {
            let mut j = GuestJob::new(2, 100.0, 50.0).with_checkpointing(CheckpointConfig {
                interval_secs: 10.0,
                cost_secs: 1.0,
            });
            let mut t = 0.0;
            while !j.advance(1.0, 1.0) {
                t += 1.0;
            }
            t
        };
        assert!(cp_time > plain_time, "{cp_time} vs {plain_time}");
    }

    #[test]
    fn overshoot_is_clamped() {
        let mut j = GuestJob::new(1, 10.0, 50.0);
        assert!(j.advance(2.0, 100.0)); // fraction clamps to 1.0
        assert!(j.is_complete());
    }
}
