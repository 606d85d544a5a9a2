//! History logs: per-day state sequences collected by the State Manager and
//! the store the predictor draws its statistics from (paper §5).
//!
//! A day is stored as its sojourn runs, not its samples: the paper keeps Q
//! and H small "thanks to the model's sparsity" (§5.3), and the history they
//! are estimated from is sparse the same way. Every estimate reads a window
//! as the runs of its day clipped to the window's fence posts, continued
//! into the next day across midnight; no window is rebuilt as samples.
//!
//! A store has no file form of its own. The serving registry persists each
//! day as its run text (`StateLog::write_run_text`) in its WAL and
//! snapshots, and a trace file keeps the raw samples a store is classified
//! from.

use fgcs_runtime::block;

use crate::classify::StateClassifier;
use crate::error::CoreError;
use crate::model::{AvailabilityModel, LoadSample};
use crate::state::{self, State};
use crate::window::{DayType, TimeWindow};

/// Index of the last sample of the run that starts at `start`, searched a
/// block of samples at a time.
fn run_end<T: Copy + PartialEq>(samples: &[T], start: usize) -> usize {
    let value = samples[start];
    let rest = &samples[start + 1..];
    start + block::position(rest, |&s| s != value).unwrap_or(rest.len())
}

/// Cuts a sample sequence into its maximal runs, `(value, length)` left to
/// right. The one scanner behind [`StateLog::new`], [`StateLog::from_digits`],
/// [`StateLog::from_run_text`] and every estimate from a `&[State]` slice.
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

/// Runs from this many samples on are written `<digit>(<count>)` by
/// [`StateLog::write_run_text`]: that takes 3 bytes plus the count's
/// digits, 4 for a run of 5 to 9 samples, so it is shorter than the plain
/// digits from 5 samples on and never before.
const SHORTEST_COUNTED_RUN: u32 = 5;

/// Most samples a log decoded by [`StateLog::from_run_text`] may hold, so
/// that every run, merged or not, fits the `u32` a run stores.
const MAX_LOG_SAMPLES: usize = u32::MAX as usize;

/// Appends `n` in decimal.
// lint: no-alloc
fn push_decimal(out: &mut Vec<u8>, mut n: u32) {
    let mut digits = [0u8; 10];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Reads the count of a counted run from the text after its `(`:
/// `(count, offset of the closing ')')`, or `None` when the count is
/// empty, unclosed, not decimal, zero or past `u32::MAX`.
fn parse_count(text: &[u8]) -> Option<(u32, usize)> {
    let close = text.iter().position(|&b| b == b')')?;
    let digits = &text[..close];
    if digits.is_empty() || !digits.iter().all(u8::is_ascii_digit) {
        return None;
    }
    let count: u32 = std::str::from_utf8(digits).ok()?.parse().ok()?;
    (count > 0).then_some((count, close))
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

    /// Decodes digit text written by [`state::encode_digits`] (the wire's
    /// `ingest` `states` field) straight into runs, never building the
    /// samples. `Err(at)` is the byte offset of the first byte outside
    /// `b'1'..=b'5'`.
    ///
    /// # Panics
    /// Panics if `step_secs == 0`.
    pub fn from_digits(step_secs: u32, digits: &[u8]) -> Result<StateLog, usize> {
        assert!(step_secs > 0, "step must be positive");
        let mut log = StateLog::empty(step_secs);
        // One pass: every byte of a run equals its first, so checking that
        // byte checks the run, and the first bad run starts at the first
        // bad byte.
        for (digit, n) in runs_of(digits) {
            if !state::is_digit(digit) {
                return Err(log.len);
            }
            log.push_run(state::digit_state(digit), n);
        }
        log.runs.shrink_to_fit();
        Ok(log)
    }

    /// Decodes run text written by [`write_run_text`](StateLog::write_run_text)
    /// straight into runs. Plain digit text is run text without a count, so
    /// this one decoder reads both the digit records of earlier builds and
    /// the run records of this one.
    ///
    /// `Err(at)` is the byte offset where the text stops being run text: a
    /// byte that is neither a state digit nor a count, a `(` without a
    /// digit before it, a count that is empty, unclosed, zero or past
    /// `u32::MAX`, or a run that takes the log past `u32::MAX` samples.
    /// Empty text is an error at 0: no stored day is empty.
    ///
    /// # Panics
    /// Panics if `step_secs == 0`.
    pub(crate) fn from_run_text(step_secs: u32, text: &[u8]) -> Result<StateLog, usize> {
        assert!(step_secs > 0, "step must be positive");
        if text.is_empty() {
            return Err(0);
        }
        let mut log = StateLog::empty(step_secs);
        let mut at = 0;
        loop {
            let rest = &text[at..];
            // The plain digits up to the next count, or to the end.
            let plain = state::validate_digits(rest).err().unwrap_or(rest.len());
            let Some(&next) = rest.get(plain) else {
                log.push_digits(rest, at)?;
                break;
            };
            if next != b'(' || plain == 0 {
                return Err(at + plain);
            }
            // The digit before `(` is the counted one.
            log.push_digits(&rest[..plain - 1], at)?;
            let (count, close) = parse_count(&rest[plain + 1..]).ok_or(at + plain)?;
            let state = state::digit_state(rest[plain - 1]);
            log.push_checked(state, count as usize, at + plain - 1)?;
            at += plain + close + 2;
        }
        log.runs.shrink_to_fit();
        Ok(log)
    }

    /// Appends validated digit text, cut into its runs, to the log. `at` is
    /// the text's offset, for the error of a run past the cap.
    fn push_digits(&mut self, digits: &[u8], at: usize) -> Result<(), usize> {
        runs_of(digits)
            .try_for_each(|(digit, n)| self.push_checked(state::digit_state(digit), n, at))
    }

    /// [`push_run`](StateLog::push_run), refusing (with `Err(at)`) a run
    /// that takes the log past [`MAX_LOG_SAMPLES`].
    fn push_checked(&mut self, state: State, n: usize, at: usize) -> Result<(), usize> {
        if n > MAX_LOG_SAMPLES - self.len {
            return Err(at);
        }
        self.push_run(state, n);
        Ok(())
    }

    /// A log with no samples.
    fn empty(step_secs: u32) -> StateLog {
        StateLog {
            step_secs,
            len: 0,
            runs: Vec::new(),
        }
    }

    /// A log from `(state, samples)` pieces, merging adjacent pieces of one
    /// state and dropping empty ones. Allocates for the runs only.
    fn from_runs(step_secs: u32, pieces: impl Iterator<Item = (State, usize)>) -> StateLog {
        let mut log = StateLog::empty(step_secs);
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

    /// Appends the run text of the log, the form every WAL record and
    /// snapshot day stores: each run as its digit ([`state::encode_digits`]'s
    /// encoding) repeated, or as `<digit>(<count>)` where that is shorter,
    /// which is from 5 samples on. So the text is never longer than the
    /// digits, and a day of shorter runs is written as its plain digits.
    /// [`StateLog::from_run_text`] reads it.
    // lint: no-alloc
    pub(crate) fn write_run_text(&self, out: &mut Vec<u8>) {
        for &(s, n) in &self.runs {
            let digit = state::digit(s);
            if n < SHORTEST_COUNTED_RUN {
                out.resize(out.len() + n as usize, digit);
            } else {
                out.extend_from_slice(&[digit, b'(']);
                push_decimal(out, n);
                out.push(b')');
            }
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
        assert!(train > 0 || test > 0, "ratio must be positive");
        // In u128, so neither the part sum nor the product wraps.
        let (days, train, test) = (self.days.len() as u128, train as u128, test as u128);
        let n_train = (days * train / (train + test)) as usize;
        let (a, b) = self.days.split_at(n_train);
        (
            HistoryStore { days: a.to_vec() },
            HistoryStore { days: b.to_vec() },
        )
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
    fn split_ratio_with_a_huge_part_does_not_wrap() {
        let mut store = HistoryStore::new();
        for day in 0..4 {
            store.push_day(DayLog::new(day, log_of(vec![State::S1; 10])));
        }
        // 3 + usize::MAX wraps to 2 in usize arithmetic.
        let (train, test) = store.split_ratio(3, usize::MAX);
        assert_eq!((train.len(), test.len()), (0, 4));
        let (train, test) = store.split_ratio(usize::MAX, usize::MAX);
        assert_eq!((train.len(), test.len()), (2, 2));
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
                if !states.is_empty() {
                    let mut text = Vec::new();
                    log.write_run_text(&mut text);
                    ensure(text.len() <= digits.len(), &ctx)?;
                    ensure(
                        StateLog::from_run_text(STEP, &text) == Ok(log.clone()),
                        &ctx,
                    )?;
                }
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

    /// The run text of `runs`, as `(state, samples)` pieces.
    fn run_text(runs: &[(State, usize)]) -> String {
        let log = StateLog::from_runs(6, runs.iter().copied());
        let mut text = Vec::new();
        log.write_run_text(&mut text);
        String::from_utf8(text).expect("run text is ASCII")
    }

    #[test]
    fn run_text_counts_only_runs_it_shortens() {
        use State::*;
        assert_eq!(run_text(&[(S1, 2), (S2, 2)]), "1122");
        assert_eq!(run_text(&[(S1, 4), (S5, 5)]), "11115(5)");
        assert_eq!(
            run_text(&[(S1, 480), (S2, 2), (S5, 1), (S3, 13)]),
            "1(480)2253(13)"
        );
        assert_eq!(run_text(&[(S4, u32::MAX as usize)]), "4(4294967295)");
    }

    #[test]
    fn run_text_round_trips_random_logs() {
        use fgcs_runtime::check::{check, ensure};
        check("run_text_round_trips_random_logs", 300, |g| {
            let runs = match g.usize_in(0, 4) {
                // One-sample runs, merged where a state repeats.
                0 => (0..g.usize_in(1, 200))
                    .map(|_| (*g.pick(&State::ALL), 1))
                    .collect(),
                // Runs longer than u16::MAX.
                1 => (0..g.usize_in(1, 4))
                    .map(|_| (*g.pick(&State::ALL), g.usize_in(65_536, 200_000)))
                    .collect(),
                // A single-run day.
                2 => vec![(*g.pick(&State::ALL), g.usize_in(1, 14_401))],
                // Mixed: short runs beside counted ones, merges included.
                _ => (0..g.usize_in(1, 60))
                    .map(|_| (*g.pick(&State::ALL), g.usize_in(1, 30)))
                    .collect(),
            };
            let log = StateLog::from_runs(6, runs.into_iter());
            let mut text = Vec::new();
            log.write_run_text(&mut text);
            let ctx = format!("{:?} -> {}", log.runs(), String::from_utf8_lossy(&text));
            ensure(text.len() <= log.len(), &ctx)?;
            ensure(StateLog::from_run_text(6, &text) == Ok(log.clone()), &ctx)?;
            // An earlier build's digit record decodes to the same log.
            let mut digits = Vec::new();
            state::encode_digits(&log.states(), &mut digits);
            ensure(StateLog::from_run_text(6, &digits) == Ok(log.clone()), &ctx)
        });
        // A 14 400-run day, S1 and S2 alternating: no run is counted.
        let alternating: Vec<State> = (0..14_400).map(|i| State::OPERATIONAL[i % 2]).collect();
        let log = log_of(alternating.clone());
        assert_eq!(log.runs().len(), 14_400);
        let mut text = Vec::new();
        log.write_run_text(&mut text);
        let mut digits = Vec::new();
        state::encode_digits(&alternating, &mut digits);
        assert_eq!(text, digits);
        assert_eq!(StateLog::from_run_text(6, &text), Ok(log));
    }

    #[test]
    fn digits_reject_each_bad_byte_where_the_sample_decoder_does() {
        for len in [65usize, 200] {
            let good = vec![b'3'; len];
            for at in 0..=64 {
                for bad in ["0", "6", "(", "a", "é", "😀"] {
                    let mut text = good.clone();
                    text.splice(at..at + 1, bad.bytes());
                    let want = state::decode_digits(&text).map(|_| ());
                    assert_eq!(want, Err(at), "{bad:?} at {at} of {len}");
                    assert_eq!(StateLog::from_digits(6, &text).map(|_| ()), want);
                }
            }
        }
        assert_eq!(StateLog::from_digits(6, b""), Ok(log_of(Vec::new())));
    }

    #[test]
    fn run_text_rejects_malformed_text_at_its_offset() {
        let cases: [(&str, usize); 18] = [
            ("", 0),
            ("(0)", 0),
            ("(5)", 0),
            ("1(0)", 1),
            ("1(00)", 1),
            ("0", 0),
            ("16", 1),
            ("1(5)6", 4),
            ("12é", 2),
            ("1(", 1),
            ("1(5", 1),
            ("1()", 1),
            ("1(+5)", 1),
            ("1)", 1),
            ("1(4294967296)", 1),
            ("1(4294967295)1", 13),
            ("22(4294967295)", 1),
            ("2(4294967294)3(2)", 13),
        ];
        for (text, at) in cases {
            assert_eq!(
                StateLog::from_run_text(6, text.as_bytes()),
                Err(at),
                "{text:?}"
            );
        }
        // The cap itself is a valid log.
        let full = StateLog::from_run_text(6, b"1(4294967295)").unwrap();
        assert_eq!(full.len(), u32::MAX as usize);
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
