//! Graceful-degradation prediction: a fallback chain that always produces
//! a *tagged* temporal reliability instead of an error.
//!
//! The strict [`SmpPredictor`] is the right
//! tool when history is known-good: an empty or uncovered window is a
//! caller bug and deserves an error. A scheduler polling dozens of faulty
//! volunteer hosts is in a different regime — history may be short, full
//! of monitor gaps, or temporarily missing, and "no answer" forces the
//! scheduler to invent one (the old `unwrap_or(0.5)`). [`RobustPredictor`] makes the
//! inventing explicit and auditable: every TR is tagged with the
//! [`PredictionQuality`] of the path that produced it, and the chain
//! degrades in order of information content:
//!
//! 1. **Exact** — fresh kernel from the live history (via the `QhCache`);
//! 2. **Widened** — re-estimate with relaxed history selection (both day
//!    types, then additionally the midnight-anchored window of the same
//!    length), trading specificity for coverage;
//! 3. **Prior** — a conservative fixed TR when the host has no usable
//!    history at all.
//!
//! The chain reuses no kernel cached at an earlier history length: its one
//! caller, `StateManager`, only appends days, so a fresh estimate fails
//! only where no shorter history estimated either, and an estimate that
//! succeeds always solves (the horizon is the window's step count and
//! `init` is checked first).
//!
//! Only a failure initial state remains a hard error: predicting
//! reliability for a guest on an already-failed host is a contract
//! violation no fallback can repair.

use crate::cache::QhCache;
use crate::error::CoreError;
use crate::log::HistoryStore;
use crate::predictor::SmpPredictor;
use crate::state::State;
use crate::window::{DayType, TimeWindow};

/// How a [`QualifiedTr`] was obtained, best first. The discriminant order
/// matches the fallback chain, so `quality_a < quality_b` means "a came
/// from a better-informed path".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PredictionQuality {
    /// Fresh kernel estimated from the live history.
    Exact,
    /// Kernel re-estimated under relaxed history selection.
    Widened,
    /// No usable history: the conservative prior.
    Prior,
}

impl PredictionQuality {
    /// A multiplicative confidence discount a scheduler can apply when
    /// ranking hosts: degraded answers should lose ties against exact ones.
    #[must_use]
    pub fn confidence(self) -> f64 {
        match self {
            PredictionQuality::Exact => 1.0,
            PredictionQuality::Widened => 0.85,
            PredictionQuality::Prior => 0.70,
        }
    }

    /// Whether the answer came from any path below Exact.
    #[must_use]
    pub fn is_degraded(self) -> bool {
        self != PredictionQuality::Exact
    }
}

impl std::fmt::Display for PredictionQuality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PredictionQuality::Exact => "exact",
            PredictionQuality::Widened => "widened",
            PredictionQuality::Prior => "prior",
        };
        f.write_str(s)
    }
}

/// A temporal reliability together with the quality of the path that
/// produced it. The TR is always clamped to `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualifiedTr {
    /// The predicted temporal reliability, in `[0, 1]`.
    pub tr: f64,
    /// How the prediction was obtained.
    pub quality: PredictionQuality,
}

impl QualifiedTr {
    /// The TR discounted by the quality confidence — the scalar a
    /// ranking scheduler should sort by.
    #[must_use]
    pub fn score(&self) -> f64 {
        self.tr * self.quality.confidence()
    }
}

/// Default conservative prior TR: pessimistic enough that a host with no
/// history loses to any host with a decent record, optimistic enough that
/// an empty cluster still schedules work.
pub const DEFAULT_PRIOR_TR: f64 = 0.35;

/// The graceful-degradation wrapper around [`SmpPredictor`]: never errors
/// on missing or degraded history, only on a failure initial state.
#[derive(Debug, Clone, Copy)]
pub struct RobustPredictor {
    predictor: SmpPredictor,
}

impl RobustPredictor {
    /// Wraps a strict predictor.
    #[must_use]
    pub fn new(predictor: SmpPredictor) -> RobustPredictor {
        RobustPredictor { predictor }
    }

    /// The wrapped strict predictor.
    #[must_use]
    pub fn predictor(&self) -> &SmpPredictor {
        &self.predictor
    }

    /// Predicts TR through the fallback chain. Errors only when `init` is
    /// a failure state; every history problem degrades instead.
    pub fn predict(
        &self,
        cache: &QhCache,
        host: u64,
        history: &HistoryStore,
        day_type: DayType,
        window: TimeWindow,
        init: State,
    ) -> Result<QualifiedTr, CoreError> {
        if init.is_failure() {
            return Err(CoreError::FailureInitialState(init));
        }
        let steps = window.steps(self.predictor.model().monitor_period_secs);

        // 1. Exact: fresh kernel from the live history.
        if let Ok(params) = cache.get_or_estimate(&self.predictor, host, history, day_type, window)
        {
            if let Ok(tr) = self.predictor.solve_tr(&params, init, steps) {
                return Ok(self.tag(tr, PredictionQuality::Exact));
            }
        }

        // 2. Widened: relax the history selection — first both day types
        // over the same window, then additionally the midnight-anchored
        // window of the same length (any same-length stretch of any day).
        let widened = self.predictor.with_all_day_types();
        let attempts = [window, TimeWindow::new(0, window.len_secs)];
        for w in attempts {
            if let Ok(params) = widened.estimate_params(history, day_type, w) {
                if let Ok(tr) = widened.solve_tr(&params, init, steps) {
                    return Ok(self.tag(tr, PredictionQuality::Widened));
                }
            }
        }

        // 3. Prior: nothing usable — answer conservatively rather than
        // not at all.
        Ok(self.tag(DEFAULT_PRIOR_TR, PredictionQuality::Prior))
    }

    fn tag(&self, tr: f64, quality: PredictionQuality) -> QualifiedTr {
        match quality {
            PredictionQuality::Exact => fgcs_runtime::counter_add!("core.robust.exact", 1),
            PredictionQuality::Widened => fgcs_runtime::counter_add!("core.robust.widened", 1),
            PredictionQuality::Prior => fgcs_runtime::counter_add!("core.robust.prior", 1),
        }
        QualifiedTr {
            tr: tr.clamp(0.0, 1.0),
            quality,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{DayLog, StateLog};
    use crate::model::AvailabilityModel;
    use State::*;

    fn quiet_store(days: usize) -> HistoryStore {
        let mut s = HistoryStore::new();
        for day in 0..days {
            s.push_day(DayLog::new(day, StateLog::new(6, vec![S1; 1000])));
        }
        s
    }

    fn robust() -> RobustPredictor {
        RobustPredictor::new(SmpPredictor::new(AvailabilityModel::default()))
    }

    #[test]
    fn exact_on_healthy_history_matches_strict_predictor() {
        let cache = QhCache::new(8);
        let history = quiet_store(5);
        let r = robust();
        let w = TimeWindow::new(0, 600);
        let q = r
            .predict(&cache, 1, &history, DayType::Weekday, w, S1)
            .unwrap();
        assert_eq!(q.quality, PredictionQuality::Exact);
        let strict = r
            .predictor()
            .predict(&history, DayType::Weekday, w, S1)
            .unwrap();
        assert_eq!(q.tr.to_bits(), strict.to_bits());
    }

    #[test]
    fn widened_covers_day_type_starvation() {
        // Weekend-only history, weekday query, cold cache: the same-window
        // cross-day-type widening answers.
        let cache = QhCache::new(8);
        let mut history = HistoryStore::new();
        history.push_day(DayLog::new(5, StateLog::new(6, vec![S1; 1000])));
        history.push_day(DayLog::new(6, StateLog::new(6, vec![S1; 1000])));
        let r = robust();
        let w = TimeWindow::new(0, 600);
        let q = r
            .predict(&cache, 1, &history, DayType::Weekday, w, S1)
            .unwrap();
        assert_eq!(q.quality, PredictionQuality::Widened);
        assert_eq!(q.tr, 1.0);
    }

    #[test]
    fn prior_answers_when_nothing_is_usable() {
        let cache = QhCache::new(8);
        let empty = HistoryStore::new();
        let r = robust();
        let w = TimeWindow::new(0, 600);
        let q = r
            .predict(&cache, 9, &empty, DayType::Weekday, w, S1)
            .unwrap();
        assert_eq!(q.quality, PredictionQuality::Prior);
        assert_eq!(q.tr, DEFAULT_PRIOR_TR);
    }

    #[test]
    fn failure_init_is_still_a_hard_error() {
        let cache = QhCache::new(8);
        let history = quiet_store(5);
        let r = robust();
        let w = TimeWindow::new(0, 600);
        assert!(matches!(
            r.predict(&cache, 1, &history, DayType::Weekday, w, S5),
            Err(CoreError::FailureInitialState(S5))
        ));
    }

    #[test]
    fn quality_order_and_scores_are_monotone() {
        use PredictionQuality::*;
        assert!(Exact < Widened && Widened < Prior);
        assert!(Exact.confidence() > Widened.confidence());
        assert!(Widened.confidence() > Prior.confidence());
        assert!(!Exact.is_degraded());
        assert!(Prior.is_degraded());
        let q = QualifiedTr {
            tr: 0.8,
            quality: Widened,
        };
        assert!((q.score() - 0.8 * 0.85).abs() < 1e-12);
    }
}
