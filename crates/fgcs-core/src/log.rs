//! History logs: per-day state sequences collected by the State Manager and
//! the store the predictor draws its statistics from (paper §5).

use fgcs_runtime::impl_json_struct;
use fgcs_runtime::json::JsonError;

use crate::classify::StateClassifier;
use crate::error::CoreError;
use crate::model::{AvailabilityModel, LoadSample};
use crate::state::State;
use crate::window::{DayType, TimeWindow};

/// What [`HistoryStore::from_samples_lossy`] did to a corrupted stream:
/// how much was repaired, quarantined, or dropped. Serialisable so chaos
/// campaigns can log it alongside their metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Samples offered to the ingestor (including any trailing partial day).
    pub total_samples: usize,
    /// Samples whose readings were insane and repaired by hold-last.
    pub repaired_samples: usize,
    /// Whole days accepted into the store.
    pub days_ingested: usize,
    /// Whole days rejected as irreparable (more than half repaired).
    pub days_quarantined: usize,
    /// Samples of a trailing partial day dropped from the tail.
    pub trailing_samples_dropped: usize,
}

impl_json_struct!(IngestReport {
    total_samples,
    repaired_samples,
    days_ingested,
    days_quarantined,
    trailing_samples_dropped,
});

impl IngestReport {
    /// Whether the whole stream was ingested untouched.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.repaired_samples == 0
            && self.days_quarantined == 0
            && self.trailing_samples_dropped == 0
    }
}

/// Fraction of a day's samples above which the day is quarantined rather
/// than repaired: a day that is mostly hold-last interpolation carries no
/// signal and would bias the kernel estimate.
const QUARANTINE_REPAIR_FRACTION: f64 = 0.5;

/// Repairs insane readings in a sample stream by holding the last sane
/// sample (per the whole reading — CPU and memory travel together, since a
/// monitor glitch rarely corrupts one field in isolation). A stream that
/// *starts* insane holds `seed` instead. Returns the repaired stream and
/// the number of repaired samples.
///
/// Idempotent: the repaired stream is entirely sane, so repairing it again
/// changes nothing (a property test asserts this).
pub fn sanitize_samples(samples: &[LoadSample], seed: LoadSample) -> (Vec<LoadSample>, usize) {
    let mut held = seed;
    let mut repaired = 0usize;
    let out = samples
        .iter()
        .map(|&s| {
            if s.is_sane() {
                held = s;
                s
            } else {
                repaired += 1;
                // A dead heartbeat is real signal even when the readings
                // are garbage: keep `alive` from the observation.
                LoadSample {
                    alive: s.alive,
                    ..held
                }
            }
        })
        .collect();
    (out, repaired)
}

/// A uniformly sampled state sequence with its discretisation step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateLog {
    step_secs: u32,
    states: Vec<State>,
}

impl_json_struct!(StateLog { step_secs, states });

impl StateLog {
    /// Wraps a state sequence sampled every `step_secs` seconds.
    ///
    /// # Panics
    /// Panics if `step_secs == 0`.
    #[must_use]
    pub fn new(step_secs: u32, states: Vec<State>) -> StateLog {
        assert!(step_secs > 0, "step must be positive");
        StateLog { step_secs, states }
    }

    /// The discretisation step in seconds.
    #[must_use]
    pub fn step_secs(&self) -> u32 {
        self.step_secs
    }

    /// The state sequence.
    #[must_use]
    pub fn states(&self) -> &[State] {
        &self.states
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// `true` when the log holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The samples covering `window` (inclusive of both fence posts, i.e.
    /// `window.steps() + 1` samples so that `steps` transitions are
    /// observable), or an error if the log is too short.
    pub fn window_slice(&self, window: TimeWindow) -> Result<&[State], CoreError> {
        let start = window.start_step(self.step_secs);
        let steps = window.steps(self.step_secs);
        let end = start + steps + 1;
        if end > self.states.len() {
            return Err(CoreError::WindowOutOfRange {
                window,
                log_len: self.states.len(),
                needed: end,
            });
        }
        Ok(&self.states[start..end])
    }

    /// Overwrites `len` samples starting at `start` with `state`, clamping
    /// to the log's end. Used by the noise-injection experiments (§7.3).
    pub fn overwrite(&mut self, start: usize, len: usize, state: State) {
        let n = self.states.len();
        let end = (start + len).min(n);
        for s in &mut self.states[start.min(n)..end] {
            *s = state;
        }
    }

    /// Number of *unavailability occurrences*: transitions from an
    /// operational (or log-start) position into a failure state. This is the
    /// quantity the paper reports as 405–453 per machine over 3 months.
    #[must_use]
    pub fn unavailability_occurrences(&self) -> usize {
        let mut count = 0;
        let mut prev_failure = true; // suppress counting if log starts failed
        for &s in &self.states {
            if s.is_failure() && !prev_failure {
                count += 1;
            }
            prev_failure = s.is_failure();
        }
        count
    }
}

/// One machine-day of availability states, tagged with its position in the
/// trace and its day type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DayLog {
    /// Zero-based day index within the trace (day 0 is a Monday).
    pub day_index: usize,
    /// Weekday or weekend.
    pub day_type: DayType,
    /// The day's state sequence.
    pub log: StateLog,
}

impl_json_struct!(DayLog {
    day_index,
    day_type,
    log,
});

impl DayLog {
    /// Builds a day log, deriving the day type from the index.
    #[must_use]
    pub fn new(day_index: usize, log: StateLog) -> DayLog {
        DayLog {
            day_index,
            day_type: DayType::of_day(day_index),
            log,
        }
    }
}

/// The history store the State Manager keeps: an ordered collection of day
/// logs for one machine. Prediction for a window on a weekday (weekend) uses
/// the corresponding window of the most recent weekdays (weekends) — §4.2.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistoryStore {
    days: Vec<DayLog>,
}

impl_json_struct!(HistoryStore { days });

impl HistoryStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> HistoryStore {
        HistoryStore::default()
    }

    /// Builds a history store by classifying a stream of monitor samples.
    ///
    /// The stream must hold whole days (`model.samples_per_day()` samples
    /// each); `first_day_index` anchors the weekday/weekend calendar.
    ///
    /// Classification (including transient folding) runs per day, matching
    /// the per-day logs the State Manager keeps.
    pub fn from_samples(
        model: &AvailabilityModel,
        samples: &[LoadSample],
        first_day_index: usize,
    ) -> Result<HistoryStore, CoreError> {
        let per_day = model.samples_per_day();
        if per_day == 0 || !samples.len().is_multiple_of(per_day) {
            return Err(CoreError::PartialDay {
                samples: samples.len(),
                per_day,
            });
        }
        let classifier = StateClassifier::new(*model);
        let mut store = HistoryStore::new();
        for (i, chunk) in samples.chunks(per_day).enumerate() {
            let states = classifier.classify(chunk);
            store.push_day(DayLog::new(
                first_day_index + i,
                StateLog::new(model.monitor_period_secs, states),
            ));
        }
        Ok(store)
    }

    /// Builds a history store from a stream that may be corrupted or
    /// incomplete, degrading instead of erroring where
    /// [`HistoryStore::from_samples`] would fail:
    ///
    /// * insane readings (NaN, ±inf, out-of-range — see
    ///   [`LoadSample::is_sane`]) are repaired by holding the last sane
    ///   sample;
    /// * days needing more than half their samples repaired are
    ///   **quarantined** — excluded from the store, though their calendar
    ///   slot still advances so later days keep their weekday/weekend tag;
    /// * a trailing partial day is dropped rather than rejected.
    ///
    /// On a clean whole-day stream this is exactly equivalent to
    /// `from_samples`. The returned [`IngestReport`] accounts for every
    /// repair; `core.ingest.*` counters mirror it in the metrics registry.
    #[must_use]
    pub fn from_samples_lossy(
        model: &AvailabilityModel,
        samples: &[LoadSample],
        first_day_index: usize,
    ) -> (HistoryStore, IngestReport) {
        let per_day = model.samples_per_day();
        let mut report = IngestReport {
            total_samples: samples.len(),
            ..IngestReport::default()
        };
        let whole = samples.len() / per_day * per_day;
        report.trailing_samples_dropped = samples.len() - whole;
        let classifier = StateClassifier::new(*model);
        let mut store = HistoryStore::new();
        // Seed the hold-last repair with a sample a guest could run beside.
        let fallback_mem = model.guest_working_set_mb * 4.0;
        let mut held_seed = LoadSample::idle(fallback_mem);
        for (i, chunk) in samples[..whole].chunks(per_day).enumerate() {
            let (repaired, n_repaired) = sanitize_samples(chunk, held_seed);
            report.repaired_samples += n_repaired;
            // Carry the last sane reading across the day boundary so a
            // stream starting a day insane holds yesterday's level.
            if let Some(&last_sane) = repaired.iter().rev().find(|s| s.is_sane()) {
                held_seed = last_sane;
            }
            if n_repaired as f64 > QUARANTINE_REPAIR_FRACTION * per_day as f64 {
                report.days_quarantined += 1;
                continue;
            }
            let states = classifier.classify(&repaired);
            store.push_day(DayLog::new(
                first_day_index + i,
                StateLog::new(model.monitor_period_secs, states),
            ));
            report.days_ingested += 1;
        }
        fgcs_runtime::counter_add!(
            "core.ingest.repaired_samples",
            report.repaired_samples as u64
        );
        fgcs_runtime::counter_add!(
            "core.ingest.quarantined_days",
            report.days_quarantined as u64
        );
        fgcs_runtime::counter_add!(
            "core.ingest.dropped_trailing_samples",
            report.trailing_samples_dropped as u64
        );
        (store, report)
    }

    /// Appends a day log (days are expected in chronological order).
    pub fn push_day(&mut self, day: DayLog) {
        self.days.push(day);
    }

    /// All day logs in chronological order.
    #[must_use]
    pub fn days(&self) -> &[DayLog] {
        &self.days
    }

    /// Mutable access to the day logs (noise injection / failure-injection
    /// experiments).
    #[must_use]
    pub fn days_mut(&mut self) -> &mut [DayLog] {
        &mut self.days
    }

    /// Number of stored days.
    #[must_use]
    pub fn len(&self) -> usize {
        self.days.len()
    }

    /// `true` when no days are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.days.is_empty()
    }

    /// The states covering `window` anchored at the day stored at position
    /// `pos`: the `window.steps() + 1` fence-post samples. For windows that
    /// cross midnight the sequence is stitched from this day and the *next
    /// chronological* day (which must be stored at `pos + 1` with a
    /// consecutive day index).
    ///
    /// Returns `None` when the logs do not cover the window.
    #[must_use]
    pub fn window_states(&self, pos: usize, window: TimeWindow) -> Option<Vec<State>> {
        self.window_parts(pos, window)
            .map(|(head, tail)| [head, tail].concat())
    }

    /// [`window_states`](HistoryStore::window_states) as borrowed parts:
    /// the samples from day `pos`, then those from the next day (empty
    /// unless the window is stitched).
    fn window_parts(&self, pos: usize, window: TimeWindow) -> Option<(&[State], &[State])> {
        let day = self.days.get(pos)?;
        let step = day.log.step_secs();
        let start = window.start_step(step);
        let steps = window.steps(step);
        // Windows that fit inside this day's log (including the closing
        // fence post) need no stitching; everything else — windows crossing
        // midnight, or ending exactly at midnight, whose final fence post
        // is the next day's first sample — continues into the next
        // chronological day.
        if start + steps < day.log.len() {
            return Some((&day.log.states()[start..start + steps + 1], &[]));
        }
        let next = self.days.get(pos + 1)?;
        if next.day_index != day.day_index + 1 || next.log.step_secs() != step {
            return None;
        }
        let first_len = day.log.len().checked_sub(start)?;
        let rest = (steps + 1).checked_sub(first_len)?;
        if rest > next.log.len() {
            return None;
        }
        Some((&day.log.states()[start..], &next.log.states()[..rest]))
    }

    /// The window state sequences of the most recent `max_days` days of the
    /// given type (all matching days if `max_days` is `None`; empty for
    /// `Some(0)`), most recent first. A cross-midnight window belongs to the
    /// day it *starts* on.
    ///
    /// Days whose logs do not cover the window are skipped.
    #[must_use]
    pub fn recent_windows(
        &self,
        day_type: DayType,
        window: TimeWindow,
        max_days: Option<usize>,
    ) -> Vec<Vec<State>> {
        let mut out = Vec::new();
        self.for_each_recent_window(day_type, window, max_days, |states| {
            out.push(states.to_vec());
        });
        out
    }

    /// Calls `f` on each window [`recent_windows`](HistoryStore::recent_windows)
    /// returns, in the same order, and returns how many there were. A
    /// window inside one day's log is borrowed from it; a stitched one is
    /// copied into a buffer reused across days.
    pub(crate) fn for_each_recent_window(
        &self,
        day_type: DayType,
        window: TimeWindow,
        max_days: Option<usize>,
        mut f: impl FnMut(&[State]),
    ) -> usize {
        let mut found = 0;
        let mut stitched = Vec::new();
        for pos in (0..self.days.len()).rev() {
            if max_days.is_some_and(|n| found >= n) {
                break;
            }
            if self.days[pos].day_type != day_type {
                continue;
            }
            if let Some((head, tail)) = self.window_parts(pos, window) {
                if tail.is_empty() {
                    f(head);
                } else {
                    stitched.clear();
                    stitched.extend_from_slice(head);
                    stitched.extend_from_slice(tail);
                    f(&stitched);
                }
                found += 1;
            }
        }
        found
    }

    /// Splits the store into (training, test) parts by a `train:test` ratio,
    /// preserving chronological order (training is the *earlier* part, as in
    /// the paper's experiments).
    ///
    /// # Panics
    /// Panics if the ratio parts are both zero.
    #[must_use]
    pub fn split_ratio(&self, train: usize, test: usize) -> (HistoryStore, HistoryStore) {
        assert!(train + test > 0, "ratio must be positive");
        let n_train = self.days.len() * train / (train + test);
        let (a, b) = self.days.split_at(n_train);
        (
            HistoryStore { days: a.to_vec() },
            HistoryStore { days: b.to_vec() },
        )
    }

    /// Serialises the store to JSON (the on-disk format the State Manager
    /// persists its history logs in).
    pub fn to_json(&self) -> Result<String, JsonError> {
        Ok(fgcs_runtime::json::to_string(self))
    }

    /// Deserialises a store from JSON.
    pub fn from_json(json: &str) -> Result<HistoryStore, JsonError> {
        fgcs_runtime::json::from_str(json)
    }

    /// Total unavailability occurrences across all stored days.
    #[must_use]
    pub fn unavailability_occurrences(&self) -> usize {
        // Count per day, plus failures that begin exactly at a day boundary
        // after an operational day end.
        let mut total = 0;
        let mut prev_last_failure: Option<bool> = None;
        for day in &self.days {
            let states = day.log.states();
            total += day.log.unavailability_occurrences();
            if let (Some(false), Some(first)) = (prev_last_failure, states.first()) {
                if first.is_failure() {
                    total += 1;
                }
            }
            prev_last_failure = states.last().map(|s| s.is_failure());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(states: Vec<State>) -> StateLog {
        StateLog::new(6, states)
    }

    #[test]
    fn window_slice_is_inclusive_of_fence_posts() {
        // 1-minute day at 6s step = 10 samples.
        let log = log_of(vec![State::S1; 14_400]);
        let w = TimeWindow::new(60, 60); // 10 steps
        let slice = log.window_slice(w).unwrap();
        assert_eq!(slice.len(), 11);
    }

    #[test]
    fn window_slice_out_of_range_errors() {
        let log = log_of(vec![State::S1; 100]);
        let w = TimeWindow::new(0, 6 * 200);
        assert!(matches!(
            log.window_slice(w),
            Err(CoreError::WindowOutOfRange { .. })
        ));
    }

    #[test]
    fn unavailability_occurrences_counts_entries() {
        use State::*;
        let log = log_of(vec![S1, S1, S3, S3, S1, S5, S5, S2, S4, S4]);
        // Entries into failure: at index 2 (S3), 5 (S5), 8 (S4).
        assert_eq!(log.unavailability_occurrences(), 3);
    }

    #[test]
    fn unavailability_ignores_leading_failure() {
        use State::*;
        let log = log_of(vec![S5, S5, S1, S3]);
        assert_eq!(log.unavailability_occurrences(), 1);
    }

    #[test]
    fn from_samples_rejects_partial_days() {
        let model = AvailabilityModel::default();
        let samples = vec![LoadSample::idle(512.0); 100];
        assert!(matches!(
            HistoryStore::from_samples(&model, &samples, 0),
            Err(CoreError::PartialDay { .. })
        ));
    }

    #[test]
    fn from_samples_builds_tagged_days() {
        let model = AvailabilityModel::default();
        let per_day = model.samples_per_day();
        let samples = vec![LoadSample::idle(512.0); per_day * 7];
        let store = HistoryStore::from_samples(&model, &samples, 0).unwrap();
        assert_eq!(store.len(), 7);
        assert_eq!(store.days()[0].day_type, DayType::Weekday);
        assert_eq!(store.days()[5].day_type, DayType::Weekend);
        assert!(store.days()[0].log.states().iter().all(|&s| s == State::S1));
    }

    fn nan_sample() -> LoadSample {
        LoadSample {
            host_cpu: f64::NAN,
            free_mem_mb: f64::NAN,
            alive: true,
        }
    }

    #[test]
    fn lossy_matches_strict_on_clean_input() {
        let model = AvailabilityModel::default();
        let per_day = model.samples_per_day();
        let mut samples = vec![LoadSample::idle(512.0); per_day * 3];
        // Mix in busy and revoked stretches so classification is non-trivial.
        for s in &mut samples[100..400] {
            s.host_cpu = 0.9;
        }
        for s in &mut samples[per_day..per_day + 50] {
            *s = LoadSample::revoked();
        }
        let strict = HistoryStore::from_samples(&model, &samples, 2).unwrap();
        let (lossy, report) = HistoryStore::from_samples_lossy(&model, &samples, 2);
        assert_eq!(strict, lossy);
        assert!(report.is_clean());
        assert_eq!(report.days_ingested, 3);
    }

    #[test]
    fn lossy_repairs_insane_samples_by_hold_last() {
        let model = AvailabilityModel::default();
        let per_day = model.samples_per_day();
        let mut samples = vec![LoadSample::idle(512.0); per_day];
        samples[10].host_cpu = 0.9; // S3-level load…
        samples[11] = nan_sample(); // …held through the glitch
        samples[12].host_cpu = f64::INFINITY;
        let (store, report) = HistoryStore::from_samples_lossy(&model, &samples, 0);
        assert_eq!(report.repaired_samples, 2);
        assert_eq!(report.days_ingested, 1);
        let states = store.days()[0].log.states();
        // The held 0.9 load classifies 11 and 12 like their neighbor 10.
        assert_eq!(states[11], states[10]);
        assert_eq!(states[12], states[10]);
    }

    #[test]
    fn lossy_quarantines_mostly_garbage_days_but_keeps_calendar() {
        let model = AvailabilityModel::default();
        let per_day = model.samples_per_day();
        let mut samples = vec![LoadSample::idle(512.0); per_day * 3];
        // Corrupt > half of day 1.
        for s in &mut samples[per_day..per_day + per_day / 2 + 10] {
            *s = nan_sample();
        }
        let (store, report) = HistoryStore::from_samples_lossy(&model, &samples, 0);
        assert_eq!(report.days_quarantined, 1);
        assert_eq!(report.days_ingested, 2);
        // Day indices 0 and 2 survive: the quarantined slot still advanced.
        let indices: Vec<usize> = store.days().iter().map(|d| d.day_index).collect();
        assert_eq!(indices, vec![0, 2]);
    }

    #[test]
    fn lossy_drops_trailing_partial_day() {
        let model = AvailabilityModel::default();
        let per_day = model.samples_per_day();
        let samples = vec![LoadSample::idle(512.0); per_day + 123];
        let (store, report) = HistoryStore::from_samples_lossy(&model, &samples, 0);
        assert_eq!(store.len(), 1);
        assert_eq!(report.trailing_samples_dropped, 123);
    }

    #[test]
    fn lossy_preserves_dead_heartbeat_through_repair() {
        let model = AvailabilityModel::default();
        let per_day = model.samples_per_day();
        let mut samples = vec![LoadSample::idle(512.0); per_day];
        samples[20] = LoadSample {
            alive: false,
            ..nan_sample()
        };
        let (store, report) = HistoryStore::from_samples_lossy(&model, &samples, 0);
        assert_eq!(report.repaired_samples, 1);
        // The dead heartbeat survives the value repair: state is S5.
        assert_eq!(store.days()[0].log.states()[20], State::S5);
    }

    #[test]
    fn recent_windows_filters_by_day_type_and_limits() {
        let mut store = HistoryStore::new();
        for day in 0..14 {
            store.push_day(DayLog::new(day, log_of(vec![State::S1; 14_400])));
        }
        let w = TimeWindow::from_hours(8.0, 1.0);
        let weekdays = store.recent_windows(DayType::Weekday, w, None);
        assert_eq!(weekdays.len(), 10);
        let weekends = store.recent_windows(DayType::Weekend, w, Some(3));
        assert_eq!(weekends.len(), 3);
    }

    #[test]
    fn recent_windows_skips_short_days() {
        let mut store = HistoryStore::new();
        store.push_day(DayLog::new(0, log_of(vec![State::S1; 100]))); // truncated day
        store.push_day(DayLog::new(1, log_of(vec![State::S1; 14_400])));
        let w = TimeWindow::from_hours(8.0, 1.0);
        let windows = store.recent_windows(DayType::Weekday, w, None);
        assert_eq!(windows.len(), 1);
    }

    #[test]
    fn window_states_stitches_across_midnight() {
        let mut store = HistoryStore::new();
        store.push_day(DayLog::new(0, log_of(vec![State::S1; 14_400])));
        store.push_day(DayLog::new(1, log_of(vec![State::S2; 14_400])));
        // 23:00 + 2h crosses midnight: 1200 steps, 1201 samples.
        let w = TimeWindow::from_hours(23.0, 2.0);
        let states = store.window_states(0, w).unwrap();
        assert_eq!(states.len(), 1201);
        // First hour (600 fence posts) from day 0, remainder from day 1.
        assert_eq!(states[0], State::S1);
        assert_eq!(states[599], State::S1);
        assert_eq!(states[600], State::S2);
        assert_eq!(states[1200], State::S2);
    }

    #[test]
    fn window_states_requires_consecutive_next_day() {
        let mut store = HistoryStore::new();
        store.push_day(DayLog::new(0, log_of(vec![State::S1; 14_400])));
        store.push_day(DayLog::new(2, log_of(vec![State::S2; 14_400]))); // gap
        let w = TimeWindow::from_hours(23.0, 2.0);
        assert_eq!(store.window_states(0, w), None);
    }

    #[test]
    fn window_states_none_without_next_day() {
        let mut store = HistoryStore::new();
        store.push_day(DayLog::new(0, log_of(vec![State::S1; 14_400])));
        let w = TimeWindow::from_hours(23.0, 2.0);
        assert_eq!(store.window_states(0, w), None);
        // An in-day window still works.
        assert!(store
            .window_states(0, TimeWindow::from_hours(8.0, 1.0))
            .is_some());
    }

    #[test]
    fn recent_windows_includes_cross_midnight_days() {
        let mut store = HistoryStore::new();
        for day in 0..7 {
            store.push_day(DayLog::new(day, log_of(vec![State::S1; 14_400])));
        }
        let w = TimeWindow::from_hours(23.0, 2.0);
        // Days 0..4 are weekdays; day 4 (Friday) stitches into day 5
        // (Saturday) which exists, so all 5 weekdays qualify.
        let windows = store.recent_windows(DayType::Weekday, w, None);
        assert_eq!(windows.len(), 5);
        // Saturday (5) stitches into Sunday (6); Sunday has no successor.
        let weekend = store.recent_windows(DayType::Weekend, w, None);
        assert_eq!(weekend.len(), 1);
    }

    #[test]
    fn split_ratio_preserves_order_and_counts() {
        let mut store = HistoryStore::new();
        for day in 0..10 {
            store.push_day(DayLog::new(day, log_of(vec![State::S1; 10])));
        }
        let (train, test) = store.split_ratio(6, 4);
        assert_eq!(train.len(), 6);
        assert_eq!(test.len(), 4);
        assert_eq!(train.days()[0].day_index, 0);
        assert_eq!(test.days()[0].day_index, 6);
    }

    #[test]
    fn store_unavailability_spans_day_boundaries() {
        use State::*;
        let mut store = HistoryStore::new();
        store.push_day(DayLog::new(0, log_of(vec![S1, S1])));
        store.push_day(DayLog::new(1, log_of(vec![S5, S1]))); // entry at boundary
        store.push_day(DayLog::new(2, log_of(vec![S1, S3]))); // entry mid-day
        assert_eq!(store.unavailability_occurrences(), 2);
    }

    #[test]
    fn serde_round_trip() {
        let mut store = HistoryStore::new();
        store.push_day(DayLog::new(0, log_of(vec![State::S1, State::S3])));
        let json = fgcs_runtime::json::to_string(&store);
        let back: HistoryStore = fgcs_runtime::json::from_str(&json).unwrap();
        assert_eq!(store, back);
    }

    #[test]
    fn json_persistence_round_trips() {
        let mut store = HistoryStore::new();
        store.push_day(DayLog::new(
            3,
            log_of(vec![State::S2, State::S5, State::S1]),
        ));
        let json = store.to_json().unwrap();
        let back = HistoryStore::from_json(&json).unwrap();
        assert_eq!(store, back);
        assert!(HistoryStore::from_json("{not json").is_err());
    }
}
