//! Proactive guest migration: move a running job off a machine whose
//! predicted reliability has collapsed, before the failure happens.
//!
//! The paper's §5.1 notes that "checkpointing can also be used to migrate
//! the guest process off the machine if resource becomes unavailable"; this
//! module makes that decision *predictively*: while a guest runs, the
//! cluster periodically re-queries the host's temporal reliability over the
//! job's remaining runtime, and when it falls below a threshold — and some
//! other node looks sufficiently better — the job is checkpointed and
//! re-queued.

/// Configuration of proactive migration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationPolicy {
    /// Seconds between reliability re-checks of running jobs.
    pub check_interval_secs: u32,
    /// Migrate when the current host's predicted TR over the remaining
    /// runtime drops below this.
    pub tr_threshold: f64,
    /// ... and only if the best alternative node beats the current host's
    /// TR by at least this margin (prevents ping-ponging between equally
    /// mediocre machines).
    pub min_improvement: f64,
    /// Work-seconds it costs to checkpoint + transfer the job.
    pub migration_cost_secs: f64,
}

impl MigrationPolicy {
    /// A conservative default: re-check every 10 minutes, migrate below
    /// TR 0.3 when another node is at least 0.2 better, 60 s cost.
    #[must_use]
    pub fn conservative() -> MigrationPolicy {
        MigrationPolicy {
            check_interval_secs: 600,
            tr_threshold: 0.3,
            min_improvement: 0.2,
            migration_cost_secs: 60.0,
        }
    }

    /// Decides whether to migrate given the current host's predicted TR and
    /// the best alternative's.
    #[must_use]
    pub fn should_migrate(&self, current_tr: f64, best_alternative_tr: Option<f64>) -> bool {
        if current_tr >= self.tr_threshold {
            return false;
        }
        match best_alternative_tr {
            Some(alt) => alt >= current_tr + self.min_improvement,
            None => false,
        }
    }

    /// Check interval in monitoring steps.
    #[must_use]
    pub fn check_interval_steps(&self, step_secs: u32) -> u64 {
        u64::from((self.check_interval_secs / step_secs.max(1)).max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_migration_above_threshold() {
        let p = MigrationPolicy::conservative();
        assert!(!p.should_migrate(0.5, Some(0.99)));
    }

    #[test]
    fn migration_requires_better_alternative() {
        let p = MigrationPolicy::conservative();
        assert!(p.should_migrate(0.1, Some(0.5)));
        assert!(!p.should_migrate(0.1, Some(0.25))); // improvement too small
        assert!(!p.should_migrate(0.1, None));
    }

    #[test]
    fn interval_steps_round_down_but_stay_positive() {
        let p = MigrationPolicy {
            check_interval_secs: 10,
            ..MigrationPolicy::conservative()
        };
        assert_eq!(p.check_interval_steps(6), 1);
        assert_eq!(MigrationPolicy::conservative().check_interval_steps(6), 100);
    }
}
