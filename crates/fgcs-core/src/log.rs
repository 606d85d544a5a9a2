//! History logs: per-day state sequences collected by the State Manager and
//! the store the predictor draws its statistics from (paper §5).
//!
//! A day is stored as its sojourn runs, not its samples: the paper keeps Q
//! and H small "thanks to the model's sparsity" (§5.3), and the history they
//! are estimated from is sparse the same way. Every estimate reads a window
//! as the runs of its day clipped to the window's fence posts, continued
//! into the next day across midnight; no window is rebuilt as samples.

use fgcs_runtime::impl_json_struct;
use fgcs_runtime::json::{FromJson, Json, JsonError, ToJson};

use crate::classify::StateClassifier;
use crate::error::CoreError;
use crate::model::{AvailabilityModel, LoadSample};
use crate::state::{self, State};
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

/// Samples compared per step of the run scan in [`runs_of`].
const RUN_BLOCK: usize = 32;

/// Index of the last sample of the run that starts at `start`.
fn run_end<T: Copy + PartialEq>(samples: &[T], start: usize) -> usize {
    let value = samples[start];
    let mut next = start + 1;
    // Skip whole blocks of `value` with a branch-free fold that LLVM turns
    // into vector compares; only the block where the run ends is searched
    // sample by sample.
    while let Some(block) = samples.get(next..next + RUN_BLOCK) {
        if block.iter().fold(false, |leaves, &s| leaves | (s != value)) {
            let offset = block.iter().position(|&s| s != value).unwrap_or(0);
            return next + offset - 1;
        }
        next += RUN_BLOCK;
    }
    while samples.get(next) == Some(&value) {
        next += 1;
    }
    next - 1
}

/// Cuts a sample sequence into its maximal runs, `(value, length)` left to
/// right. The one scanner behind [`StateLog::new`], [`StateLog::from_digits`]
/// and every estimate from a `&[State]` slice.
pub(crate) fn runs_of<T: Copy + PartialEq>(samples: &[T]) -> impl Iterator<Item = (T, usize)> + '_ {
    let mut start = 0;
    std::iter::from_fn(move || {
        let &value = samples.get(start)?;
        let end = run_end(samples, start);
        let len = end + 1 - start;
        start = end + 1;
        Some((value, len))
    })
}

/// A uniformly sampled state sequence with its discretisation step, stored
/// as its sojourn runs: maximal stretches of one state, `(state, samples)`
/// left to right. A classified 6-s day is 14 400 samples but only tens of
/// runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateLog {
    step_secs: u32,
    len: usize,
    /// Non-empty and maximal (adjacent runs differ), so the derived
    /// equality is equality of the samples.
    runs: Vec<(State, u32)>,
}

// The JSON form lists every sample, `{"step_secs":…,"states":[…]}`: the
// layout of the per-sample log this type replaced.
impl ToJson for StateLog {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("step_secs".to_string(), self.step_secs.to_json()),
            ("states".to_string(), self.states().to_json()),
        ])
    }
}

impl FromJson for StateLog {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let step_secs: u32 = v.get("step_secs")?;
        let states: Vec<State> = v.get("states")?;
        if step_secs == 0 {
            return Err(JsonError("step must be positive".to_string()).in_field("step_secs"));
        }
        Ok(StateLog::new(step_secs, states))
    }
}

impl StateLog {
    /// Wraps a state sequence sampled every `step_secs` seconds, cut into
    /// its runs.
    ///
    /// # Panics
    /// Panics if `step_secs == 0`.
    #[must_use]
    pub fn new(step_secs: u32, states: Vec<State>) -> StateLog {
        assert!(step_secs > 0, "step must be positive");
        StateLog::from_runs(step_secs, runs_of(&states))
    }

    /// Decodes digit text written by [`state::encode_digits`] straight into
    /// runs, never building the samples. `Err(at)` is the byte offset of the
    /// first byte outside `b'1'..=b'5'`.
    ///
    /// # Panics
    /// Panics if `step_secs == 0`.
    pub(crate) fn from_digits(step_secs: u32, digits: &[u8]) -> Result<StateLog, usize> {
        assert!(step_secs > 0, "step must be positive");
        state::validate_digits(digits)?;
        let runs = runs_of(digits).map(|(digit, n)| (state::digit_state(digit), n));
        Ok(StateLog::from_runs(step_secs, runs))
    }

    /// A log from `(state, samples)` pieces, merging adjacent pieces of one
    /// state and dropping empty ones. Allocates for the runs only.
    fn from_runs(step_secs: u32, pieces: impl Iterator<Item = (State, usize)>) -> StateLog {
        let mut log = StateLog {
            step_secs,
            len: 0,
            runs: Vec::new(),
        };
        for (state, n) in pieces {
            log.push_run(state, n);
        }
        log.runs.shrink_to_fit();
        log
    }

    /// Appends `n` samples of `state`, extending the last run when it has
    /// the same state.
    fn push_run(&mut self, state: State, n: usize) {
        if n == 0 {
            return;
        }
        self.len += n;
        let n = u32::try_from(n).expect("a run of more than u32::MAX samples");
        match self.runs.last_mut() {
            Some((last, m)) if *last == state => {
                *m = m
                    .checked_add(n)
                    .expect("a run of more than u32::MAX samples");
            }
            _ => self.runs.push((state, n)),
        }
    }

    /// The discretisation step in seconds.
    #[must_use]
    pub fn step_secs(&self) -> u32 {
        self.step_secs
    }

    /// The state sequence, expanded from the runs.
    #[must_use]
    pub fn states(&self) -> Vec<State> {
        expand(self.runs_in(0, self.len))
    }

    /// The runs, `(state, samples)` left to right: non-empty, and adjacent
    /// runs differ.
    #[must_use]
    pub fn runs(&self) -> &[(State, u32)] {
        &self.runs
    }

    /// The runs covering samples `from..to`, clipped to that range.
    pub(crate) fn runs_in(&self, from: usize, to: usize) -> ClippedRuns<'_> {
        ClippedRuns {
            runs: self.runs.iter(),
            at: 0,
            from,
            to,
        }
    }

    /// Appends the digit text of the samples ([`state::encode_digits`]'s
    /// encoding), written run by run.
    // lint: no-alloc
    pub(crate) fn write_digits(&self, out: &mut Vec<u8>) {
        for &(s, n) in &self.runs {
            out.resize(out.len() + n as usize, state::digit(s));
        }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the log holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Overwrites `len` samples starting at `start` with `state`, clamping
    /// to the log's end. Used by the noise-injection experiments (§7.3).
    pub fn overwrite(&mut self, start: usize, len: usize, state: State) {
        let end = start.saturating_add(len).min(self.len);
        if start >= end {
            return;
        }
        let old = std::mem::take(&mut self.runs);
        self.len = 0;
        let mut at = 0;
        for (s, n) in old {
            let (lo, hi) = (at, at + n as usize);
            at = hi;
            self.push_run(s, hi.min(start).saturating_sub(lo));
            self.push_run(state, hi.min(end).saturating_sub(lo.max(start)));
            self.push_run(s, hi.saturating_sub(lo.max(end)));
        }
        self.runs.shrink_to_fit();
    }

    /// Number of *unavailability occurrences*: transitions from an
    /// operational (or log-start) position into a failure state. This is the
    /// quantity the paper reports as 405–453 per machine over 3 months.
    #[must_use]
    pub fn unavailability_occurrences(&self) -> usize {
        let mut count = 0;
        let mut prev_failure = true; // suppress counting if log starts failed
        for &(s, _) in &self.runs {
            if s.is_failure() && !prev_failure {
                count += 1;
            }
            prev_failure = s.is_failure();
        }
        count
    }
}

/// The runs of one log clipped to a sample range, left to right (see
/// [`StateLog::runs_in`]).
#[derive(Debug)]
pub(crate) struct ClippedRuns<'a> {
    runs: std::slice::Iter<'a, (State, u32)>,
    /// Sample index at which the next run starts.
    at: usize,
    from: usize,
    to: usize,
}

impl Iterator for ClippedRuns<'_> {
    type Item = (State, usize);

    fn next(&mut self) -> Option<(State, usize)> {
        while self.at < self.to {
            let &(state, n) = self.runs.next()?;
            let (lo, hi) = (self.at, self.at + n as usize);
            self.at = hi;
            let len = hi.min(self.to).saturating_sub(lo.max(self.from));
            if len > 0 {
                return Some((state, len));
            }
        }
        None
    }
}

/// The runs of one window, left to right: the anchor day's runs clipped to
/// the window's fence posts, then, for a window that crosses or ends at
/// midnight, the next day's. A run cut at midnight arrives as two pieces of
/// one state; [`decompose_runs`](crate::smp::params::decompose_runs) merges
/// them.
pub(crate) type WindowRuns<'a> = std::iter::Chain<ClippedRuns<'a>, ClippedRuns<'a>>;

/// The samples of `(state, samples)` pieces.
pub(crate) fn expand(pieces: impl Iterator<Item = (State, usize)>) -> Vec<State> {
    let mut out = Vec::new();
    for (s, n) in pieces {
        out.resize(out.len() + n, s);
    }
    out
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
        self.window_runs(pos, window).map(expand)
    }

    /// [`window_states`](HistoryStore::window_states) as runs: the runs of
    /// day `pos` clipped to the window, then those of the next day (none
    /// unless the window is stitched).
    pub(crate) fn window_runs(&self, pos: usize, window: TimeWindow) -> Option<WindowRuns<'_>> {
        let day = self.days.get(pos)?;
        let step = day.log.step_secs();
        let start = window.start_step(step);
        let end = start + window.steps(step) + 1;
        // Windows that fit inside this day's log (including the closing
        // fence post) need no stitching; everything else — windows crossing
        // midnight, or ending exactly at midnight, whose final fence post
        // is the next day's first sample — continues into the next
        // chronological day.
        if end <= day.log.len() {
            return Some(day.log.runs_in(start, end).chain(day.log.runs_in(0, 0)));
        }
        let next = self.days.get(pos + 1)?;
        if next.day_index != day.day_index + 1 || next.log.step_secs() != step {
            return None;
        }
        let rest = end - day.log.len();
        if start > day.log.len() || rest > next.log.len() {
            return None;
        }
        Some(
            day.log
                .runs_in(start, day.log.len())
                .chain(next.log.runs_in(0, rest)),
        )
    }

    /// Calls `f` on the runs of the window on each of the most recent
    /// `max_days` days of the given type (all matching days if `max_days`
    /// is `None`; none for `Some(0)`), most recent first, and returns how
    /// many there were. A cross-midnight window belongs to the day it
    /// *starts* on; days whose logs do not cover the window are skipped.
    /// The runs are read from the stored days in place; nothing is copied.
    pub(crate) fn for_each_recent_window<'a>(
        &'a self,
        day_type: DayType,
        window: TimeWindow,
        max_days: Option<usize>,
        mut f: impl FnMut(WindowRuns<'a>),
    ) -> usize {
        let mut found = 0;
        for pos in (0..self.days.len()).rev() {
            if max_days.is_some_and(|n| found >= n) {
                break;
            }
            if self.days[pos].day_type != day_type {
                continue;
            }
            if let Some(runs) = self.window_runs(pos, window) {
                f(runs);
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
            let runs = day.log.runs();
            total += day.log.unavailability_occurrences();
            if let (Some(false), Some((first, _))) = (prev_last_failure, runs.first()) {
                if first.is_failure() {
                    total += 1;
                }
            }
            prev_last_failure = runs.last().map(|(s, _)| s.is_failure());
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

    /// The windows [`HistoryStore::for_each_recent_window`] visits, expanded
    /// to their states, in visiting order.
    fn recent_windows(
        store: &HistoryStore,
        day_type: DayType,
        window: TimeWindow,
        max_days: Option<usize>,
    ) -> Vec<Vec<State>> {
        let mut out = Vec::new();
        store.for_each_recent_window(day_type, window, max_days, |runs| out.push(expand(runs)));
        out
    }

    #[test]
    fn recent_windows_filters_by_day_type_and_limits() {
        let mut store = HistoryStore::new();
        for day in 0..14 {
            store.push_day(DayLog::new(day, log_of(vec![State::S1; 14_400])));
        }
        let w = TimeWindow::from_hours(8.0, 1.0);
        let weekdays = recent_windows(&store, DayType::Weekday, w, None);
        assert_eq!(weekdays.len(), 10);
        let weekends = recent_windows(&store, DayType::Weekend, w, Some(3));
        assert_eq!(weekends.len(), 3);
    }

    #[test]
    fn recent_windows_skips_short_days() {
        let mut store = HistoryStore::new();
        store.push_day(DayLog::new(0, log_of(vec![State::S1; 100]))); // truncated day
        store.push_day(DayLog::new(1, log_of(vec![State::S1; 14_400])));
        let w = TimeWindow::from_hours(8.0, 1.0);
        let windows = recent_windows(&store, DayType::Weekday, w, None);
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
        let windows = recent_windows(&store, DayType::Weekday, w, None);
        assert_eq!(windows.len(), 5);
        // Saturday (5) stitches into Sunday (6); Sunday has no successor.
        let weekend = recent_windows(&store, DayType::Weekend, w, None);
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
    fn json_bytes_are_pinned() {
        use State::*;
        // Captured from the per-sample log this type replaced.
        const GOLDEN: &str = concat!(
            "{\"days\":[{\"day_index\":3,\"day_type\":\"Weekday\",\"log\":{\"step_secs\":6,",
            "\"states\":[\"S2\",\"S5\",\"S5\",\"S1\",\"S1\",\"S1\",\"S4\"]}},",
            "{\"day_index\":4,\"day_type\":\"Weekday\",\"log\":{\"step_secs\":600,",
            "\"states\":[\"S1\"]}}]}"
        );
        let mut store = HistoryStore::new();
        store.push_day(DayLog::new(3, log_of(vec![S2, S5, S5, S1, S1, S1, S4])));
        store.push_day(DayLog::new(4, StateLog::new(600, vec![S1])));
        assert_eq!(fgcs_runtime::json::to_string(&store), GOLDEN);
        assert_eq!(HistoryStore::from_json(GOLDEN).unwrap(), store);
    }

    #[test]
    fn json_rejects_a_zero_step() {
        let err = fgcs_runtime::json::from_str::<StateLog>(r#"{"step_secs":0,"states":["S1"]}"#)
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "json error: step_secs: step must be positive"
        );
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

    /// The window reading as it stood before the log went run-length: the
    /// window's samples copied out of the per-sample days (stitched across
    /// midnight into one buffer) and cut by a per-sample scan. The
    /// reference for [`HistoryStore::window_runs`] and `decompose_runs`.
    mod slice_reference {
        use super::*;
        use crate::smp::params::SojournRun;

        /// `(day_index, samples)` per stored day.
        pub(super) type Days = [(usize, Vec<State>)];

        pub(super) fn window_states(
            days: &Days,
            step: u32,
            pos: usize,
            window: TimeWindow,
        ) -> Option<Vec<State>> {
            let (index, day) = days.get(pos)?;
            let start = window.start_step(step);
            let steps = window.steps(step);
            if start + steps < day.len() {
                return Some(day[start..start + steps + 1].to_vec());
            }
            let (next_index, next) = days.get(pos + 1)?;
            if *next_index != index + 1 {
                return None;
            }
            let first_len = day.len().checked_sub(start)?;
            let rest = (steps + 1).checked_sub(first_len)?;
            if rest > next.len() {
                return None;
            }
            Some([&day[start..], &next[..rest]].concat())
        }

        pub(super) fn decompose_window(window: &[State]) -> Vec<SojournRun> {
            let mut out = Vec::new();
            let len = window.len();
            let mut start = 0;
            while start < len {
                let mut end = start;
                while end + 1 < len && window[end + 1] == window[start] {
                    end += 1;
                }
                let source = [State::S1, State::S2]
                    .iter()
                    .position(|&s| s == window[start]);
                if let Some(source_idx) = source {
                    out.push(if end + 1 < len {
                        SojournRun::Completed {
                            source_idx,
                            duration: end + 1 - start,
                            target: window[end + 1],
                        }
                    } else {
                        SojournRun::Censored {
                            source_idx,
                            at_risk: end - start,
                        }
                    });
                }
                start = end + 1;
            }
            out
        }
    }

    /// Seeded days at a 10-minute step (144 samples a day): runs that cross
    /// window edges, midnight seams with equal and with different states,
    /// truncated and empty days, and calendar gaps.
    fn random_days(g: &mut fgcs_runtime::check::Gen) -> Vec<(usize, Vec<State>)> {
        const WEIGHTED: [State; 8] = [
            State::S1,
            State::S1,
            State::S1,
            State::S2,
            State::S2,
            State::S3,
            State::S4,
            State::S5,
        ];
        let mut days: Vec<(usize, Vec<State>)> = Vec::new();
        let mut index = 0;
        for _ in 0..g.usize_in(1, 7) {
            if g.bool_with(0.15) {
                index += 1;
            }
            let len = if g.bool_with(0.7) {
                144
            } else {
                g.usize_in(0, 144)
            };
            let mut day = Vec::with_capacity(len);
            // Half the seams continue yesterday's last state.
            let carried = days.last().and_then(|(_, d)| d.last().copied());
            while day.len() < len {
                let state = match carried {
                    Some(s) if day.is_empty() && g.bool_with(0.5) => s,
                    _ => *g.pick(&WEIGHTED),
                };
                let run = g.usize_in(1, 60).min(len - day.len());
                day.resize(day.len() + run, state);
            }
            days.push((index, day));
            index += 1;
        }
        days
    }

    #[test]
    fn run_windows_match_the_slice_reference() {
        use crate::smp::params::decompose_runs;
        use fgcs_runtime::check::{check, ensure};
        const STEP: u32 = 600;
        check("run_windows_match_the_slice_reference", 300, |g| {
            let days = random_days(g);
            let mut store = HistoryStore::new();
            for (index, states) in &days {
                let log = StateLog::new(STEP, states.clone());
                let ctx = format!("day {index}: {states:?}");
                ensure(log.states() == *states && log.len() == states.len(), &ctx)?;
                ensure(log.runs().iter().all(|&(_, n)| n > 0), &ctx)?;
                ensure(log.runs().windows(2).all(|w| w[0].0 != w[1].0), &ctx)?;
                let mut digits = Vec::new();
                state::encode_digits(states, &mut digits);
                ensure(
                    StateLog::from_digits(STEP, &digits) == Ok(log.clone()),
                    &ctx,
                )?;
                let mut written = Vec::new();
                log.write_digits(&mut written);
                ensure(written == digits, &ctx)?;
                store.push_day(DayLog::new(*index, log));
            }
            for _ in 0..8 {
                let start = g.usize_in(0, 144) as u32 * STEP;
                // A quarter of the windows end exactly at midnight.
                let len = if g.bool_with(0.25) {
                    86_400 - start
                } else {
                    g.usize_in(1, 145) as u32 * STEP
                };
                let window = TimeWindow::new(start, len);
                for pos in 0..days.len() {
                    let want = slice_reference::window_states(&days, STEP, pos, window);
                    let ctx = format!("window {window:?} at day {pos}; days {days:?}");
                    ensure(store.window_states(pos, window) == want, &ctx)?;
                    let mut got = Vec::new();
                    if let Some(runs) = store.window_runs(pos, window) {
                        decompose_runs(runs, &mut |run| got.push(run));
                    }
                    let want = want
                        .as_deref()
                        .map_or_else(Vec::new, slice_reference::decompose_window);
                    ensure(got == want, &ctx)?;
                }
            }
            Ok(())
        });
    }

    #[test]
    fn overwrite_matches_the_expanded_samples() {
        use fgcs_runtime::check::{check, ensure};
        check("overwrite_matches_the_expanded_samples", 300, |g| {
            let days = random_days(g);
            for (_, states) in days {
                let mut log = log_of(states.clone());
                let mut want = states;
                for _ in 0..g.usize_in(1, 4) {
                    let n = want.len();
                    let (start, len) = (g.usize_in(0, n + 8), g.usize_in(0, 60));
                    let state = *g.pick(&State::ALL);
                    log.overwrite(start, len, state);
                    let end = (start + len).min(n);
                    for s in &mut want[start.min(n)..end] {
                        *s = state;
                    }
                    let ctx = format!("overwrite({start}, {len}, {state}) of {n} samples");
                    ensure(log.states() == want, &ctx)?;
                    ensure(log == log_of(want.clone()), &ctx)?;
                }
            }
            Ok(())
        });
    }
}
