//! Incremental Q/H estimation: O(1) amortized per arriving sample.
//!
//! The full-scan path ([`crate::predictor::SmpPredictor::estimate_params`])
//! re-reads every qualifying history day on every estimate. At serving
//! scale (ROADMAP item 1: ~10⁶ hosts under sustained ingest) that rescan is
//! the bottleneck: each appended day re-pays the cost of all previous days.
//!
//! [`IncrementalEstimator`] instead folds each day *once*, as soon as its
//! window becomes final, into a compact per-day log of decomposed
//! sojourn runs (`SojournRun`). Estimation then replays
//! the retained runs through the same [`SojournAccumulator`] tally rule the
//! batch path uses. Two facts make the result **bitwise identical** to the
//! full-scan oracle, not merely close:
//!
//! 1. The decomposition is shared code (`decompose_runs`, over the same
//!    clipped runs of the stored days), so the exact same runs are
//!    produced; and
//! 2. each run adds one integer tally key, and the keys are sorted before
//!    use, so their order does not matter — folding days oldest-first
//!    gives the same sorted tallies as the oracle's most-recent-first
//!    scan.
//!
//! The product-limit transform then runs on bit-equal tallies, and the
//! resulting [`SmpParams`] compare equal with `==` (which is what the
//! property tests assert).
//!
//! **Finality rule.** A day at position `pos` is folded only once
//! [`crate::log::HistoryStore::window_states`] can no longer change its
//! answer for that position: either the window fits inside the day's own
//! log, or day `pos + 1` exists (cross-midnight windows stitch into the
//! next stored day; day logs themselves are immutable once pushed). Until
//! then the position is left pending — `sync` is safe to call at any
//! interleaving of appends.
//!
//! **Cost.** `sync` after one appended day decomposes at most one window,
//! read as the stored runs of at most two days and never copied, so the
//! update costs O(runs) of those days, independent of history length.
//! Building [`SmpParams`] replays the `R` retained runs and sorts their
//! tallies — the "kernel rebuild", in O(R log R) time and O(R) memory,
//! independent of the window's horizon.
//! Callers (the sharded registry) cache the built params so a rebuild
//! happens only when the retained-day set rolls over (a new day qualified
//! or an old one slid out of `max_days`).

use std::collections::VecDeque;

use crate::log::HistoryStore;
use crate::smp::params::{decompose_runs, SojournRun};
use crate::smp::{SmpParams, SojournAccumulator};
use crate::state::State;
use crate::window::{DayType, TimeWindow};

/// The decomposed sojourn runs of one qualifying day's window.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DayDelta {
    /// Position of the day in the history store (diagnostics / debugging).
    pos: usize,
    /// The day's runs in left-to-right order.
    runs: Vec<SojournRun>,
}

/// Sliding-window incremental Q/H estimator for one
/// `(day_type, window, max_days)` coordinate of one host.
///
/// Feed it the host's [`HistoryStore`] via
/// [`sync`](IncrementalEstimator::sync) after appends;
/// [`params`](IncrementalEstimator::params) rebuilds [`SmpParams`] from the
/// retained per-day run logs, bitwise identical to
/// `SmpPredictor::estimate_params` over the same store (see the module
/// docs for why).
#[derive(Debug, Clone)]
pub struct IncrementalEstimator {
    step_secs: u32,
    day_type: DayType,
    window: TimeWindow,
    max_days: Option<usize>,
    /// Next history position whose finality has not been decided yet.
    next_pos: usize,
    /// Run logs of the qualifying days, oldest first, at most `max_days`.
    deltas: VecDeque<DayDelta>,
    /// How many kernel rebuilds `params` has performed (diagnostics).
    rebuilds: u64,
}

impl IncrementalEstimator {
    /// Creates an estimator for one query coordinate. `step_secs` is the
    /// model's monitoring period (`AvailabilityModel::monitor_period_secs`)
    /// and `max_days` mirrors `SmpPredictor::with_max_history_days`
    /// (`None` = all qualifying days).
    ///
    /// # Panics
    /// Panics when `step_secs` is zero.
    #[must_use]
    pub fn new(
        step_secs: u32,
        day_type: DayType,
        window: TimeWindow,
        max_days: Option<usize>,
    ) -> IncrementalEstimator {
        assert!(step_secs > 0, "step must be positive");
        IncrementalEstimator {
            step_secs,
            day_type,
            window,
            max_days,
            next_pos: 0,
            deltas: VecDeque::new(),
            rebuilds: 0,
        }
    }

    /// The query window this estimator maintains statistics for.
    #[must_use]
    pub fn window(&self) -> TimeWindow {
        self.window
    }

    /// The day type this estimator maintains statistics for.
    #[must_use]
    pub fn day_type(&self) -> DayType {
        self.day_type
    }

    /// Number of qualifying days currently retained (after the `max_days`
    /// slide).
    #[must_use]
    pub fn qualifying_days(&self) -> usize {
        if self.max_days == Some(0) {
            return 0;
        }
        self.deltas.len()
    }

    /// Number of kernel rebuilds [`params`](IncrementalEstimator::params)
    /// has performed so far.
    #[must_use]
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Folds every newly-final history position into the per-day run logs
    /// and slides out days beyond `max_days`. Returns the number of
    /// newly-qualified days (0 when nothing rolled over — the caller can
    /// keep serving a cached kernel in that case).
    ///
    /// `history` must be the same append-only store across calls: days
    /// already folded are never re-read, so replacing or mutating earlier
    /// days would silently desynchronize the statistics (appends only).
    pub fn sync(&mut self, history: &HistoryStore) -> usize {
        let days = history.days();
        let mut folded = 0usize;
        while self.next_pos < days.len() {
            let pos = self.next_pos;
            let day = &days[pos];
            if day.day_type == self.day_type {
                // Finality: `window_states(pos, ..)` either answers from
                // this day alone or stitches into day `pos + 1`. Until that
                // next day exists the answer may still change, so leave the
                // position pending.
                let step = day.log.step_secs();
                let fits = self.window.start_step(step) + self.window.steps(step) < day.log.len();
                if !fits && pos + 1 >= days.len() {
                    break;
                }
                if let Some(window_runs) = history.window_runs(pos, self.window) {
                    let mut runs = Vec::new();
                    decompose_runs(window_runs, &mut |run| runs.push(run));
                    self.deltas.push_back(DayDelta { pos, runs });
                    folded += 1;
                    if let Some(n) = self.max_days {
                        while self.deltas.len() > n {
                            self.deltas.pop_front();
                        }
                    }
                }
            }
            self.next_pos += 1;
        }
        folded
    }

    /// Rebuilds the estimated [`SmpParams`] from the retained run logs, or
    /// `None` when no day qualifies yet (the full-scan path errors with
    /// `EmptyHistory` there).
    ///
    /// This is the *rollover* cost: callers should cache the result and
    /// call again only when [`sync`](IncrementalEstimator::sync) reported
    /// new days (or the history grew).
    #[must_use]
    pub fn params(&mut self) -> Option<SmpParams> {
        if self.qualifying_days() == 0 {
            return None;
        }
        let horizon = self.window.steps(self.step_secs);
        let keep = self.max_days.unwrap_or(self.deltas.len());
        let skip = self.deltas.len().saturating_sub(keep);
        let kept = || self.deltas.iter().skip(skip);
        let runs = kept().map(|d| d.runs.len()).sum();
        let mut acc = SojournAccumulator::with_capacity(self.step_secs, horizon, runs);
        for delta in kept() {
            for &run in &delta.runs {
                acc.record(run);
            }
        }
        self.rebuilds += 1;
        Some(acc.finish())
    }

    /// Convenience: [`sync`](IncrementalEstimator::sync) then
    /// [`params`](IncrementalEstimator::params).
    pub fn sync_and_params(&mut self, history: &HistoryStore) -> Option<SmpParams> {
        self.sync(history);
        self.params()
    }

    /// Approximate retained-state footprint in runs (capacity planning for
    /// million-host registries).
    #[must_use]
    pub fn retained_runs(&self) -> usize {
        self.deltas.iter().map(|d| d.runs.len()).sum()
    }

    /// Initial state observed at the window start of the most recent
    /// qualifying day, if any — what a scheduler would use as the query's
    /// `init` when probing this host without a live sample.
    #[must_use]
    pub fn last_window_start_state(&self, history: &HistoryStore) -> Option<State> {
        let pos = self.deltas.back()?.pos;
        history
            .window_runs(pos, self.window)?
            .next()
            .map(|(state, _)| state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{DayLog, StateLog};
    use crate::model::AvailabilityModel;
    use crate::predictor::SmpPredictor;
    use crate::state::State::*;
    use fgcs_runtime::check::check;
    use fgcs_runtime::rng::{Rng, Xoshiro256};

    const STEP: u32 = 6;

    fn predictor(max_days: Option<usize>) -> SmpPredictor {
        let model = AvailabilityModel::default();
        match max_days {
            Some(n) => SmpPredictor::new(model).with_max_history_days(n),
            None => SmpPredictor::new(model),
        }
    }

    /// A seeded pseudo-random day of `len` samples with occasional failure
    /// and S2 runs.
    fn random_day(rng: &mut Xoshiro256, len: usize) -> Vec<State> {
        const STATES: [State; 9] = [S1, S1, S1, S1, S2, S2, S3, S4, S5];
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let state = STATES[rng.range_usize(0, STATES.len())];
            let run = rng.range_usize(1, 40);
            for _ in 0..run.min(len - out.len()) {
                out.push(state);
            }
        }
        out
    }

    fn full_day(rng: &mut Xoshiro256) -> Vec<State> {
        random_day(rng, 14_400)
    }

    /// Oracle comparison at a single point in time.
    fn assert_matches_oracle(
        est: &mut IncrementalEstimator,
        history: &HistoryStore,
        day_type: DayType,
        window: TimeWindow,
        max_days: Option<usize>,
    ) {
        let incremental = est.sync_and_params(history);
        let oracle = predictor(max_days).estimate_params(history, day_type, window);
        match (incremental, oracle) {
            (Some(inc), Ok(full)) => assert_eq!(inc, full, "params diverged"),
            (None, Err(_)) => {}
            (inc, full) => panic!(
                "qualification diverged: incremental={:?} oracle_ok={}",
                inc.map(|p| p.sojourn_counts()),
                full.is_ok()
            ),
        }
    }

    #[test]
    fn matches_oracle_on_simple_growing_history() {
        let window = TimeWindow::from_hours(9.0, 2.0);
        let mut est = IncrementalEstimator::new(STEP, DayType::Weekday, window, None);
        let mut history = HistoryStore::new();
        let mut g = Xoshiro256::seed_from_u64(42);
        for day in 0..10 {
            history.push_day(DayLog::new(day, StateLog::new(STEP, full_day(&mut g))));
            assert_matches_oracle(&mut est, &history, DayType::Weekday, window, None);
        }
        assert!(est.qualifying_days() > 0);
        assert!(est.retained_runs() > 0);
    }

    #[test]
    fn matches_oracle_across_midnight_stitching() {
        // 23:00 + 2h stitches into the next day: day `pos` only becomes
        // final once day `pos + 1` is appended.
        let window = TimeWindow::from_hours(23.0, 2.0);
        let mut est = IncrementalEstimator::new(STEP, DayType::Weekday, window, None);
        let mut history = HistoryStore::new();
        let mut g = Xoshiro256::seed_from_u64(7);
        for day in 0..8 {
            history.push_day(DayLog::new(day, StateLog::new(STEP, full_day(&mut g))));
            assert_matches_oracle(&mut est, &history, DayType::Weekday, window, None);
        }
    }

    #[test]
    fn pending_cross_midnight_day_folds_after_successor() {
        let window = TimeWindow::from_hours(23.0, 2.0);
        let mut est = IncrementalEstimator::new(STEP, DayType::Weekday, window, None);
        let mut history = HistoryStore::new();
        let mut g = Xoshiro256::seed_from_u64(3);
        history.push_day(DayLog::new(0, StateLog::new(STEP, full_day(&mut g))));
        assert_eq!(est.sync(&history), 0, "day 0 cannot be final yet");
        assert!(est.params().is_none());
        history.push_day(DayLog::new(1, StateLog::new(STEP, full_day(&mut g))));
        assert_eq!(est.sync(&history), 1, "day 0 finalizes via day 1");
    }

    #[test]
    fn max_days_slides_oldest_days_out() {
        let window = TimeWindow::from_hours(8.0, 1.0);
        let mut est = IncrementalEstimator::new(STEP, DayType::Weekday, window, Some(3));
        let mut history = HistoryStore::new();
        let mut g = Xoshiro256::seed_from_u64(11);
        for day in 0..12 {
            history.push_day(DayLog::new(day, StateLog::new(STEP, full_day(&mut g))));
            assert_matches_oracle(&mut est, &history, DayType::Weekday, window, Some(3));
        }
        assert_eq!(est.qualifying_days(), 3);
    }

    #[test]
    fn max_days_zero_never_qualifies() {
        let window = TimeWindow::from_hours(8.0, 1.0);
        let mut est = IncrementalEstimator::new(STEP, DayType::Weekday, window, Some(0));
        let mut history = HistoryStore::new();
        let mut g = Xoshiro256::seed_from_u64(13);
        history.push_day(DayLog::new(0, StateLog::new(STEP, full_day(&mut g))));
        est.sync(&history);
        assert_eq!(est.qualifying_days(), 0);
        assert!(est.params().is_none());
    }

    #[test]
    fn truncated_days_are_skipped_like_the_oracle() {
        let window = TimeWindow::from_hours(8.0, 1.0);
        let mut est = IncrementalEstimator::new(STEP, DayType::Weekday, window, None);
        let mut history = HistoryStore::new();
        let mut g = Xoshiro256::seed_from_u64(17);
        // Day 0: truncated (100 samples, does not cover 8:00); day 1: full.
        history.push_day(DayLog::new(0, StateLog::new(STEP, random_day(&mut g, 100))));
        assert_matches_oracle(&mut est, &history, DayType::Weekday, window, None);
        history.push_day(DayLog::new(1, StateLog::new(STEP, full_day(&mut g))));
        assert_matches_oracle(&mut est, &history, DayType::Weekday, window, None);
        assert_eq!(est.qualifying_days(), 1);
    }

    #[test]
    fn rebuild_counter_tracks_params_calls() {
        let window = TimeWindow::from_hours(8.0, 1.0);
        let mut est = IncrementalEstimator::new(STEP, DayType::Weekday, window, None);
        let mut history = HistoryStore::new();
        let mut g = Xoshiro256::seed_from_u64(19);
        history.push_day(DayLog::new(0, StateLog::new(STEP, full_day(&mut g))));
        est.sync(&history);
        assert_eq!(est.rebuilds(), 0);
        assert!(est.params().is_some());
        assert!(est.params().is_some());
        assert_eq!(est.rebuilds(), 2);
    }

    #[test]
    fn last_window_start_state_tracks_most_recent_day() {
        let window = TimeWindow::from_hours(0.0, 1.0);
        let mut est = IncrementalEstimator::new(STEP, DayType::Weekday, window, None);
        let mut history = HistoryStore::new();
        history.push_day(DayLog::new(0, StateLog::new(STEP, vec![S1; 14_400])));
        history.push_day(DayLog::new(1, StateLog::new(STEP, vec![S2; 14_400])));
        est.sync(&history);
        assert_eq!(est.last_window_start_state(&history), Some(S2));
    }

    /// The satellite property test: incremental ≡ full-rescan after
    /// arbitrary interleavings of appends and rollovers (`params` calls),
    /// over random day types, lengths, windows (incl. cross-midnight) and
    /// `max_days` values.
    #[test]
    fn property_incremental_equals_full_rescan_under_interleavings() {
        check("incremental_qh_equals_full_rescan", 60, |g| {
            let day_type = *g.pick(&DayType::ALL);
            // Random window, biased towards cross-midnight edges.
            let start_secs = g.rng().range_usize(0, 24) as u32 * 3600;
            let len_secs = g.rng().range_usize(1, 5) as u32 * 1800;
            let window = TimeWindow::new(start_secs, len_secs);
            let max_days = if g.bool_with(0.5) {
                Some(g.rng().range_usize(0, 5))
            } else {
                None
            };
            let mut est = IncrementalEstimator::new(STEP, day_type, window, max_days);
            let mut history = HistoryStore::new();
            let n_days = g.rng().range_usize(1, 12);
            let mut day_index = 0usize;
            for _ in 0..n_days {
                // Occasionally truncate a day so qualification is
                // non-trivial; occasionally skip a calendar slot so
                // cross-midnight stitching fails on the gap.
                if g.bool_with(0.1) {
                    day_index += 1;
                }
                let len = if g.bool_with(0.2) {
                    g.rng().range_usize(2, 14_400)
                } else {
                    14_400
                };
                history.push_day(DayLog::new(
                    day_index,
                    StateLog::new(STEP, random_day(g.rng(), len)),
                ));
                day_index += 1;
                // Interleave: sometimes check (forcing a rollover
                // rebuild), sometimes batch several appends.
                if g.bool_with(0.6) {
                    assert_matches_oracle(&mut est, &history, day_type, window, max_days);
                }
            }
            assert_matches_oracle(&mut est, &history, day_type, window, max_days);
            Ok(())
        });
    }
}
