//! Estimation of the semi-Markov kernel from history logs.
//!
//! The paper computes the SMP parameters "via the statistics on history
//! logs" of the same time window on the most recent same-type days (§4.2),
//! and stores `Q` and `H(m)` as an 8-element structure thanks to the model's
//! sparsity (§5.3): transitions only leave the two operational states, each
//! towards the other operational state or one of the three absorbing failure
//! states — `2 × 4 = 8` (state, target) pairs.
//!
//! We estimate the *kernel* `q_{i,k}(l) = Pr{next state k, holding time l |
//! entered i}` directly with a discrete-time product-limit (Kaplan–Meier
//! style) estimator, because window-bounded logs are right-censored: a
//! sojourn still in progress when the window ends tells us the holding time
//! exceeded the observed span but not where the process went next. Ignoring
//! censored sojourns would wildly overestimate failure probabilities on
//! quiet machines (most windows contain a single uninterrupted S1 sojourn).
//! `Q` and `H` are recovered as `Q_i(k) = Σ_l q_{i,k}(l)` and
//! `H_{i,k}(l) = q_{i,k}(l) / Q_i(k)`.
//!
//! The first sojourn of a window is left-truncated (the machine entered its
//! state before the window opened). We treat it as entered at the window
//! start; this conditions the statistics on the state occupied at the
//! window's start time-of-day, which matches how the predictor is invoked
//! (the initial state is the state observed at submission time).
//!
//! The kernel is stored sparsely too: each of the eight rows `q_{i,k}(·)`
//! is its ascending list of nonzero `(holding, mass)` events — tens of
//! entries for a 2-h window, where a dense row has `horizon + 1`. The
//! estimator tallies one `(holding, target)` event and one capped at-risk
//! end per sojourn run and evaluates the product-limit only at the event
//! holding times, so a build costs O(runs log runs) time and O(runs)
//! memory, whatever the horizon. Alongside the rows, [`SmpParams`] keeps
//! the solver's view (the failure rows lumped into one mass per holding
//! time, and the row totals `Q_i(k)`), so every solve and every `Qh`
//! lookup afterwards is allocation-free, and a cached `Arc<SmpParams>`
//! shares it across all consumers. Dense rows are built only on demand,
//! for the paper-order oracle and the JSON form.

use std::sync::OnceLock;

use fgcs_runtime::json::{FromJson, Json, JsonError, ToJson};

use crate::log::runs_of;
use crate::state::State;

/// Index of the kernel's source states: 0 → S1, 1 → S2.
const SOURCES: [State; 2] = [State::S1, State::S2];

/// Targets for each source, in kernel index order:
/// `[other operational, S3, S4, S5]`.
#[must_use]
fn targets_of(source_idx: usize) -> [State; 4] {
    let other = SOURCES[1 - source_idx];
    [other, State::S3, State::S4, State::S5]
}

/// Maps a target state to its kernel index for the given source, if the
/// transition is representable (self-transitions are not).
fn target_index(source_idx: usize, target: State) -> Option<usize> {
    targets_of(source_idx).iter().position(|&t| t == target)
}

/// The sparse kernel and the solver-facing view derived from it:
///
/// * `rows[i][k]` — the ascending nonzero `(holding, mass)` events of
///   `q_{i,k}`, targets in `[other, S3, S4, S5]` order. This *is* the
///   kernel: equality, the content hash, [`SmpParams::kernel_at`] and the
///   holding-time pmfs read it. `rows[i][0]` is the operational transition
///   (`S1→S2` / `S2→S1`), the only list the Eq.-3 convolution scans;
/// * `direct[i]` — the three failure rows lumped by holding time `l ≥ 1`,
///   `(l, (q_{i,S3}(l) + q_{i,S4}(l)) + q_{i,S5}(l))`, so one cursor per
///   source adds one number per event to the direct-failure term of the
///   lumped recursion (Eq. 2 reads only the sum over failure states);
/// * `q_total[i][k]` — the embedded transition probabilities
///   `Q_i(k) = Σ_{l ≥ 1} q_{i,k}(l)`, making [`SmpParams::q`] and the
///   holding-time pmf normalisers O(1).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct SolverKernel {
    rows: [[Vec<(usize, f64)>; 4]; 2],
    direct: [Vec<(usize, f64)>; 2],
    q_total: [[f64; 4]; 2],
}

impl SolverKernel {
    /// Appends the masses `q_{i,k}(l)` of every target `k` at one holding
    /// time `l`; holding times arrive in ascending order per source. Zero
    /// masses are not stored.
    fn push(&mut self, source_idx: usize, l: usize, masses: [f64; 4]) {
        for (row, &v) in self.rows[source_idx].iter_mut().zip(&masses) {
            if v != 0.0 {
                row.push((l, v));
            }
        }
        if l >= 1 && masses[1..].iter().any(|&v| v != 0.0) {
            self.direct[source_idx].push((l, (masses[1] + masses[2]) + masses[3]));
        }
    }

    /// Reserves room for the events of source `i`'s holding-time groups
    /// (see [`event_groups`]), so each row is allocated once.
    fn reserve(
        &mut self,
        source_idx: usize,
        groups: impl Iterator<Item = (usize, [usize; 4], usize)>,
    ) {
        let (mut rows, mut direct) = ([0usize; 4], 0usize);
        for (_, counts, _) in groups {
            for (row, &count) in rows.iter_mut().zip(&counts) {
                *row += usize::from(count > 0);
            }
            direct += usize::from(counts[1..] != [0; 3]);
        }
        for (row, n) in self.rows[source_idx].iter_mut().zip(rows) {
            row.reserve_exact(n);
        }
        self.direct[source_idx].reserve_exact(direct);
    }

    /// Fills in the row totals once every event is in.
    fn seal(mut self, horizon: usize) -> SolverKernel {
        // Same bits as the dense row sum `q(1..=horizon).iter().sum()`:
        // `f64: Sum` starts from −0.0, its first term (zero or not) moves
        // the sum off −0.0, and after that the skipped zeros are exact
        // no-ops. Only horizon 0, an empty range, keeps the −0.0.
        let start = if horizon == 0 { -0.0 } else { 0.0 };
        for (totals, rows) in self.q_total.iter_mut().zip(&self.rows) {
            for (total, row) in totals.iter_mut().zip(rows) {
                *total = row
                    .iter()
                    .filter(|&&(l, _)| l >= 1)
                    .fold(start, |sum, &(_, v)| sum + v);
            }
        }
        self
    }

    /// Builds the sparse kernel from dense rows of `horizon + 1` entries.
    fn from_dense(kernel: &[[Vec<f64>; 4]; 2], horizon: usize) -> SolverKernel {
        let mut sparse = SolverKernel::default();
        for (i, row) in kernel.iter().enumerate() {
            let [other, s3, s4, s5] = row;
            for (l, (((&a, &b), &c), &d)) in other.iter().zip(s3).zip(s4).zip(s5).enumerate() {
                sparse.push(i, l, [a, b, c, d]);
            }
        }
        sparse.seal(horizon)
    }

    /// Ascending `(holding, mass)` events of the operational transition out
    /// of source `i`.
    #[must_use]
    pub(crate) fn trans_events(&self, source_idx: usize) -> &[(usize, f64)] {
        &self.rows[source_idx][0]
    }

    /// Ascending lumped direct-failure events of source `i`:
    /// `(l, (q_{i,S3}(l) + q_{i,S4}(l)) + q_{i,S5}(l))` for each `l ≥ 1`
    /// with any failure mass.
    #[must_use]
    pub(crate) fn direct_events(&self, source_idx: usize) -> &[(usize, f64)] {
        &self.direct[source_idx]
    }
}

/// The estimated SMP parameters: the sparse semi-Markov kernel
/// `q_{i,k}(l)` for `i ∈ {S1, S2}`, `k ∈ {other, S3, S4, S5}` and
/// `l ∈ 1..=horizon` steps, with its precomputed solver view.
#[derive(Debug, Clone)]
pub struct SmpParams {
    step_secs: u32,
    horizon: usize,
    /// Number of sojourns observed per source state (diagnostics).
    sojourns: [usize; 2],
    /// The kernel's nonzero events and the views derived from them.
    kernel: SolverKernel,
    /// Lazy FNV-1a content hash (the kernel-dedup lookup key). Derived, so
    /// excluded from equality and serialization.
    hash: OnceLock<u64>,
}

// Manual equality over the content fields only. The lumped failure events
// and row totals are pure functions of `(rows, horizon)` and `hash` is a
// lazy memo — including the memo would make content-equal values compare
// unequal depending on what has been computed so far (`OnceLock` equality
// compares `get()` results).
impl PartialEq for SmpParams {
    fn eq(&self, other: &SmpParams) -> bool {
        self.step_secs == other.step_secs
            && self.horizon == other.horizon
            && self.sojourns == other.sojourns
            && self.kernel.rows == other.kernel.rows
    }
}

// The JSON form carries the kernel as dense `horizon + 1` rows (the layout
// `impl_json_struct!` produced for the dense kernel) and rebuilds the
// sparse kernel on parse.
impl ToJson for SmpParams {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("step_secs".to_string(), self.step_secs.to_json()),
            ("horizon".to_string(), self.horizon.to_json()),
            (
                "kernel".to_string(),
                [self.dense_row(0), self.dense_row(1)].to_json(),
            ),
            ("sojourns".to_string(), self.sojourns.to_json()),
        ])
    }
}

impl FromJson for SmpParams {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let step_secs: u32 = v.get("step_secs")?;
        let horizon: usize = v.get("horizon")?;
        let kernel: [[Vec<f64>; 4]; 2] = v.get("kernel")?;
        let sojourns: [usize; 2] = v.get("sojourns")?;
        for row in &kernel {
            for col in row {
                if col.len() != horizon + 1 {
                    return Err(JsonError(format!(
                        "kernel row length {} does not match horizon {horizon}",
                        col.len()
                    )));
                }
            }
        }
        Ok(SmpParams::from_parts(step_secs, horizon, &kernel, sojourns))
    }
}

/// A borrowed view of the holding-time mass function
/// `H_{i,k}(l) = q_{i,k}(l) / Q_i(k)`: values are produced on demand from
/// the kernel row's events and its precomputed total, so taking the pmf
/// allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct HoldingPmf<'a> {
    events: &'a [(usize, f64)],
    len: usize,
    total: f64,
}

impl HoldingPmf<'_> {
    /// Number of entries (`horizon + 1`; index 0 is the unused `l = 0`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view has no entries (never true for a valid kernel).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `H(l)` — the probability the holding time is exactly `l` steps,
    /// conditioned on the transition happening.
    ///
    /// # Panics
    /// Panics when `l >= self.len()`.
    #[must_use]
    pub fn value(&self, l: usize) -> f64 {
        assert!(
            l < self.len,
            "holding time {l} outside the pmf's {} entries",
            self.len
        );
        let mass = self
            .events
            .binary_search_by_key(&l, |&(at, _)| at)
            .map_or(0.0, |i| self.events[i].1);
        mass / self.total
    }

    /// Iterates `H(l)` for `l = 0..len`.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        let mut events = self.events.iter().peekable();
        (0..self.len).map(move |l| {
            let mass = events.next_if(|&&(at, _)| at == l).map_or(0.0, |&(_, v)| v);
            mass / self.total
        })
    }
}

/// One sojourn run decomposed from a window: either a completed sojourn
/// (the process left its source state within the window) or a
/// right-censored one (still in the source state at the window edge).
///
/// Runs are the unit the incremental estimator logs per day: replaying a
/// day's runs through [`SojournAccumulator::record`] reproduces exactly the
/// tally updates [`SojournAccumulator::push_runs`] would have made, so
/// both paths share one decomposition and one tally rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SojournRun {
    /// Left the source state after `duration` steps towards `target`.
    Completed {
        /// Kernel source index (0 → S1, 1 → S2).
        source_idx: usize,
        /// Holding time in steps (uncapped; capping is a tally concern).
        duration: usize,
        /// The state entered next (possibly a failure state).
        target: State,
    },
    /// Still in the source state at the window edge with `at_risk`
    /// observable steps (the final fence-post sample carries no transition
    /// information).
    Censored {
        /// Kernel source index (0 → S1, 1 → S2).
        source_idx: usize,
        /// Fully-observed steps the sojourn was at risk for.
        at_risk: usize,
    },
}

/// Decomposes one window, given as non-empty `(state, samples)` pieces
/// left to right, into its operational sojourn runs, emitting each through
/// `emit` in order. Adjacent pieces of one state (a run cut at midnight)
/// are one run. Runs in failure states are not emitted (they carry no
/// kernel information).
pub(crate) fn decompose_runs(
    pieces: impl IntoIterator<Item = (State, usize)>,
    emit: &mut impl FnMut(SojournRun),
) {
    let source_of = |state: State| SOURCES.iter().position(|&s| s == state);
    let mut open: Option<(State, usize)> = None;
    for (state, n) in pieces {
        match &mut open {
            Some((s, len)) if *s == state => *len += n,
            _ => {
                if let Some((s, duration)) = open.replace((state, n)) {
                    if let Some(source_idx) = source_of(s) {
                        emit(SojournRun::Completed {
                            source_idx,
                            duration,
                            target: state,
                        });
                    }
                }
            }
        }
    }
    if let Some((s, len)) = open {
        if let Some(source_idx) = source_of(s) {
            emit(SojournRun::Censored {
                source_idx,
                at_risk: len - 1,
            });
        }
    }
}

/// A tally key is `source << SOURCE_SHIFT | e << TAG_BITS | tag` for one
/// informative sojourn: it was at risk for holding times `1..=e` (`e`
/// capped at the horizon), and `tag` is the target index `k` of the
/// transition observed at `e`, or [`CENSORED`] when none was. Sorting keys
/// groups them by source, then holding time, with the transitions at a
/// holding time ahead of the sojourns censored there.
const TAG_BITS: u32 = 3;
/// Tag of a sojourn that left no transition within the horizon.
const CENSORED: u64 = 4;
/// Bit holding the source index. Sojourn ends fit below it: an end is at
/// most the length of the window it came from.
const SOURCE_SHIFT: u32 = 63;

/// Streaming single-pass estimator for [`SmpParams`]: feed windows one at
/// a time, then [`finish`](SojournAccumulator::finish).
///
/// The accumulator decomposes each window in place and tallies one key per
/// informative sojourn run — its capped end and its target, if observed —
/// so the tallies grow with the runs seen, never with the horizon.
/// `finish` sorts them and runs the product-limit over the event holding
/// times only.
#[derive(Debug, Clone)]
pub struct SojournAccumulator {
    step_secs: u32,
    horizon: usize,
    /// One key per informative sojourn of either source (see [`TAG_BITS`]).
    tallies: Vec<u64>,
    sojourns: [usize; 2],
}

impl SojournAccumulator {
    /// Creates an empty accumulator.
    ///
    /// # Panics
    /// Panics when `step_secs` is zero.
    #[must_use]
    pub fn new(step_secs: u32, horizon: usize) -> SojournAccumulator {
        assert!(step_secs > 0, "step must be positive");
        SojournAccumulator {
            step_secs,
            horizon,
            tallies: Vec::new(),
            sojourns: [0usize; 2],
        }
    }

    /// An empty accumulator with room for the tallies of `runs` sojourn
    /// runs, for callers that know how many they will replay.
    pub(crate) fn with_capacity(step_secs: u32, horizon: usize, runs: usize) -> SojournAccumulator {
        let mut acc = SojournAccumulator::new(step_secs, horizon);
        acc.tallies.reserve_exact(runs);
        acc
    }

    /// Folds one window slice (the `steps + 1` fence-post samples of one
    /// historical day's window) into the tallies, cut into runs first.
    /// Slices shorter than 2 samples contribute nothing.
    pub fn push_window(&mut self, window: &[State]) {
        self.push_runs(runs_of(window));
    }

    /// Folds one window, given as its `(state, samples)` runs left to
    /// right, into the tallies.
    pub(crate) fn push_runs(&mut self, runs: impl IntoIterator<Item = (State, usize)>) {
        decompose_runs(runs, &mut |run| self.record(run));
    }

    /// Folds one decomposed sojourn run into the tallies — the single tally
    /// rule shared by [`push_runs`](SojournAccumulator::push_runs) and
    /// the incremental estimator's per-day replay. `finish` sorts the
    /// tallies, so replaying runs in any order yields bitwise-identical
    /// parameters.
    pub(crate) fn record(&mut self, run: SojournRun) {
        let (source_idx, end, tag) = match run {
            SojournRun::Completed {
                source_idx,
                duration,
                target,
            } => {
                self.sojourns[source_idx] += 1;
                match target_index(source_idx, target) {
                    Some(k) if duration <= self.horizon => (source_idx, duration, k as u64),
                    _ => (source_idx, duration.min(self.horizon), CENSORED),
                }
            }
            SojournRun::Censored {
                source_idx,
                at_risk,
            } => {
                // The final sample gives no transition information, so the
                // run is only informative with at least one at-risk step.
                if at_risk == 0 {
                    return;
                }
                self.sojourns[source_idx] += 1;
                (source_idx, at_risk.min(self.horizon), CENSORED)
            }
        };
        if end >= 1 {
            self.tallies
                .push((source_idx as u64) << SOURCE_SHIFT | (end as u64) << TAG_BITS | tag);
        }
    }

    /// Number of sojourns accumulated so far per source state.
    #[must_use]
    pub fn sojourn_counts(&self) -> [usize; 2] {
        self.sojourns
    }

    /// Converts the tallies into estimated parameters: the product-limit
    /// estimate `q_{i,k}(l) = S_i(l−1) · h_{i,k}(l)` with
    /// `S_i(l) = S_i(l−1) · (1 − Σ_k h_{i,k}(l))`, evaluated at the event
    /// holding times only. Between them every hazard is 0, so `q` is 0 and
    /// `S` is multiplied by exactly 1.0: skipping those steps gives the
    /// bits of the step-by-step recursion.
    #[must_use]
    pub fn finish(self) -> SmpParams {
        let SojournAccumulator {
            step_secs,
            horizon,
            mut tallies,
            sojourns,
        } = self;
        tallies.sort_unstable();
        let split = tallies.partition_point(|&key| key >> SOURCE_SHIFT == 0);
        let mut kernel = SolverKernel::default();
        for (i, keys) in [&tallies[..split], &tallies[split..]]
            .into_iter()
            .enumerate()
        {
            kernel.reserve(i, event_groups(keys));
            let mut survival = 1.0_f64;
            for (l, counts, at_risk) in event_groups(keys) {
                let n = at_risk as f64;
                let mut total_hazard = 0.0;
                let masses = counts.map(|count| {
                    let h = count as f64 / n;
                    total_hazard += h;
                    survival * h
                });
                survival *= (1.0 - total_hazard).max(0.0);
                kernel.push(i, l, masses);
            }
        }
        SmpParams {
            step_secs,
            horizon,
            sojourns,
            kernel: kernel.seal(horizon),
            hash: OnceLock::new(),
        }
    }
}

/// The holding times of one source's sorted tallies that saw a transition,
/// ascending: `(l, transitions per target at l, sojourns at risk at l)`.
/// A sojourn is at risk at `l` when its end is at least `l`, so the count
/// is the number of keys from the first one at `l` onwards — never 0,
/// since the transitions' own sojourns are among them.
fn event_groups(keys: &[u64]) -> impl Iterator<Item = (usize, [usize; 4], usize)> + '_ {
    let end_of = |key: u64| ((key << 1) >> (TAG_BITS + 1)) as usize;
    let mut start = 0;
    std::iter::from_fn(move || loop {
        let l = end_of(*keys.get(start)?);
        let group = start;
        let mut counts = [0usize; 4];
        while let Some(&key) = keys.get(start).filter(|&&key| end_of(key) == l) {
            if let Some(count) = counts.get_mut((key & ((1 << TAG_BITS) - 1)) as usize) {
                *count += 1;
            }
            start += 1;
        }
        if counts != [0; 4] {
            return Some((l, counts, keys.len() - group));
        }
    })
}

impl SmpParams {
    /// Estimates the kernel from a set of window slices (each slice being
    /// the `steps + 1` fence-post samples of one historical day's window)
    /// with holding times resolved up to `horizon` steps.
    ///
    /// Slices shorter than 2 samples contribute nothing. Slices may have
    /// different lengths (e.g. when mixing day logs of different coverage).
    #[must_use]
    pub fn estimate(windows: &[&[State]], step_secs: u32, horizon: usize) -> SmpParams {
        let mut acc = SojournAccumulator::new(step_secs, horizon);
        for window in windows {
            acc.push_window(window);
        }
        acc.finish()
    }

    /// The discretisation step `d` in seconds.
    #[must_use]
    pub fn step_secs(&self) -> u32 {
        self.step_secs
    }

    /// The maximum holding time (in steps) the kernel resolves.
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Number of sojourns that informed the estimate for each source state.
    #[must_use]
    pub fn sojourn_counts(&self) -> [usize; 2] {
        self.sojourns
    }

    /// Kernel value `q_{from,to}(holding)`; 0 for unrepresentable pairs or
    /// out-of-range holding times. A binary search over the row's events.
    #[must_use]
    pub fn kernel_at(&self, from: State, to: State, holding: usize) -> f64 {
        let Some(i) = SOURCES.iter().position(|&s| s == from) else {
            return 0.0;
        };
        let Some(k) = target_index(i, to) else {
            return 0.0;
        };
        if holding == 0 || holding > self.horizon {
            return 0.0;
        }
        let row = &self.kernel.rows[i][k];
        row.binary_search_by_key(&holding, |&(l, _)| l)
            .map_or(0.0, |at| row[at].1)
    }

    /// Dense kernel rows of a source state index (0 → S1, 1 → S2), in
    /// target order `[other, S3, S4, S5]`, each of `horizon + 1` entries
    /// indexed by holding time. Built on demand for the paper-order solver
    /// and the JSON form.
    #[must_use]
    pub(crate) fn dense_row(&self, source_idx: usize) -> [Vec<f64>; 4] {
        std::array::from_fn(|k| {
            let mut col = vec![0.0; self.horizon + 1];
            for &(l, v) in &self.kernel.rows[source_idx][k] {
                col[l] = v;
            }
            col
        })
    }

    /// The precomputed solver-facing view (event lists, lumped failure
    /// events, row totals).
    #[must_use]
    pub(crate) fn solver_kernel(&self) -> &SolverKernel {
        &self.kernel
    }

    /// The embedded transition probability `Q_i(k) = Σ_l q_{i,k}(l)`,
    /// served from the precomputed row totals in O(1).
    ///
    /// Rows may sum to less than 1: the deficit is the estimated probability
    /// of remaining in the state beyond the horizon (right-censoring mass).
    #[must_use]
    pub fn q(&self, from: State, to: State) -> f64 {
        let Some(i) = SOURCES.iter().position(|&s| s == from) else {
            return 0.0;
        };
        let Some(k) = target_index(i, to) else {
            return 0.0;
        };
        self.kernel.q_total[i][k]
    }

    /// The holding-time mass function `H_{i,k}(l) = q_{i,k}(l) / Q_i(k)` for
    /// `l ∈ 0..=horizon` as a borrowed, allocation-free [`HoldingPmf`] view,
    /// or `None` when the transition has zero estimated probability (H is
    /// then undefined).
    #[must_use]
    pub fn holding_pmf(&self, from: State, to: State) -> Option<HoldingPmf<'_>> {
        let i = SOURCES.iter().position(|&s| s == from)?;
        let k = target_index(i, to)?;
        let total = self.kernel.q_total[i][k];
        if total <= 0.0 {
            return None;
        }
        Some(HoldingPmf {
            events: &self.kernel.rows[i][k],
            len: self.horizon + 1,
            total,
        })
    }

    /// Builds parameters directly from a dense kernel (used by tests and
    /// the noise-free analytic fixtures).
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths.
    #[must_use]
    pub fn from_kernel(step_secs: u32, kernel: [[Vec<f64>; 4]; 2]) -> SmpParams {
        let horizon = kernel[0][0].len().saturating_sub(1);
        for row in &kernel {
            for col in row {
                assert_eq!(col.len(), horizon + 1, "inconsistent kernel row lengths");
            }
        }
        SmpParams::from_parts(step_secs, horizon, &kernel, [0, 0])
    }

    /// Internal constructor from dense rows of `horizon + 1` entries.
    fn from_parts(
        step_secs: u32,
        horizon: usize,
        kernel: &[[Vec<f64>; 4]; 2],
        sojourns: [usize; 2],
    ) -> SmpParams {
        SmpParams {
            step_secs,
            horizon,
            sojourns,
            kernel: SolverKernel::from_dense(kernel, horizon),
            hash: OnceLock::new(),
        }
    }

    /// FNV-1a hash of the estimate's content — the kernel-dedup lookup key.
    ///
    /// Hashes the kernel's nonzero `(holding, mass)` events (which together
    /// with `horizon` determine the dense kernel) plus `step_secs` and the
    /// sojourn counts, word-wise over the `f64` bit patterns. Computed once
    /// on first use and memoized; equal content always hashes equal, and
    /// the dedup table falls back to full [`PartialEq`] on hash match, so
    /// collisions cost a comparison, never correctness.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        *self.hash.get_or_init(|| {
            const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
            const PRIME: u64 = 0x0000_0100_0000_01b3;
            let mut h = OFFSET;
            let mut word = |w: u64| h = (h ^ w).wrapping_mul(PRIME);
            word(u64::from(self.step_secs));
            word(self.horizon as u64);
            word(self.sojourns[0] as u64);
            word(self.sojourns[1] as u64);
            for row in self.kernel.rows.iter().flatten() {
                word(row.len() as u64);
                for &(l, v) in row {
                    word(l as u64);
                    word(v.to_bits());
                }
            }
            h
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgcs_runtime::check::{check, ensure, Gen};
    use State::*;

    #[test]
    fn accumulator_identifies_completed_and_censored() {
        let w = [S1, S1, S2, S2, S2, S1];
        let mut acc = SojournAccumulator::new(6, 10);
        acc.push_window(&w);
        // S1 completes after 2 steps to S2; S2 completes after 3 steps to
        // S1; the trailing single-sample S1 run has no at-risk time.
        assert_eq!(acc.sojourn_counts(), [1, 1]);
        assert_eq!(
            acc.tallies,
            [2 << TAG_BITS, 1 << SOURCE_SHIFT | 3 << TAG_BITS]
        );
    }

    #[test]
    fn accumulator_censors_trailing_run() {
        let w = [S1, S1, S1, S1];
        let mut acc = SojournAccumulator::new(6, 10);
        acc.push_window(&w);
        assert_eq!(acc.sojourn_counts(), [1, 0]);
        // Censored: at-risk for 3 steps, no event recorded anywhere.
        assert_eq!(acc.tallies, [3 << TAG_BITS | CENSORED]);
    }

    #[test]
    fn accumulator_skips_failure_runs() {
        let w = [S1, S3, S3, S2, S2];
        let mut acc = SojournAccumulator::new(6, 10);
        acc.push_window(&w);
        // S1 completes to S3 after 1 step; the S3 run is skipped; the S2
        // run is censored with 1 at-risk step.
        assert_eq!(acc.sojourn_counts(), [1, 1]);
        assert_eq!(
            acc.tallies,
            [
                1 << TAG_BITS | 1,
                1 << SOURCE_SHIFT | 1 << TAG_BITS | CENSORED
            ]
        );
    }

    #[test]
    fn streaming_equals_batch_estimate() {
        let day_a: Vec<State> = (0..50)
            .map(|i| match i % 11 {
                0..=5 => S1,
                6..=8 => S2,
                _ => S3,
            })
            .collect();
        let day_b: Vec<State> = (0..50).map(|i| if i % 7 < 5 { S1 } else { S2 }).collect();
        let batch = SmpParams::estimate(&[&day_a, &day_b], 6, 49);
        let mut acc = SojournAccumulator::new(6, 49);
        acc.push_window(&day_a);
        acc.push_window(&day_b);
        let streamed = acc.finish();
        assert_eq!(batch, streamed);
    }

    #[test]
    fn all_identical_window_yields_no_failure_mass() {
        let w = vec![S1; 101];
        let p = SmpParams::estimate(&[&w], 6, 100);
        for to in [S2, S3, S4, S5] {
            assert_eq!(p.q(S1, to), 0.0);
        }
        assert_eq!(p.sojourn_counts(), [1, 0]);
    }

    #[test]
    fn deterministic_transition_estimated_exactly() {
        // Every day: 5 steps of S1, then S3 for the rest (11 samples = 10 steps).
        let day: Vec<State> = (0..11).map(|i| if i < 5 { S1 } else { S3 }).collect();
        let windows: Vec<&[State]> = vec![&day, &day, &day];
        let p = SmpParams::estimate(&windows, 6, 10);
        assert!((p.q(S1, S3) - 1.0).abs() < 1e-12);
        let pmf = p.holding_pmf(S1, S3).unwrap();
        assert!((pmf.value(5) - 1.0).abs() < 1e-12);
        assert_eq!(p.kernel_at(S1, S3, 5), 1.0);
        assert_eq!(p.kernel_at(S1, S3, 4), 0.0);
    }

    #[test]
    fn censoring_prevents_overestimation() {
        // 8 quiet days (never leave S1) + 2 failing days (S1 -> S3 at step 5).
        let quiet = vec![S1; 11];
        let failing: Vec<State> = (0..11).map(|i| if i < 5 { S1 } else { S3 }).collect();
        let mut windows: Vec<&[State]> = vec![&quiet; 8];
        windows.push(&failing);
        windows.push(&failing);
        let p = SmpParams::estimate(&windows, 6, 10);
        // Naive completed-only estimation would give Q(S1->S3) = 1.0.
        // The product-limit estimate is the empirical hazard at step 5:
        // 2 events among 10 at risk -> Q = 0.2.
        assert!((p.q(S1, S3) - 0.2).abs() < 1e-9, "q = {}", p.q(S1, S3));
    }

    #[test]
    fn rows_are_subprobabilities() {
        let day: Vec<State> = (0..21)
            .map(|i| match i % 7 {
                0..=2 => S1,
                3..=4 => S2,
                _ => S1,
            })
            .collect();
        let windows: Vec<&[State]> = vec![&day];
        let p = SmpParams::estimate(&windows, 6, 20);
        for from in [S1, S2] {
            let total: f64 = [S1, S2, S3, S4, S5]
                .into_iter()
                .map(|to| p.q(from, to))
                .sum();
            assert!(total <= 1.0 + 1e-9, "row {from} sums to {total}");
        }
    }

    #[test]
    fn holding_pmf_sums_to_one_when_defined() {
        let day: Vec<State> = (0..31).map(|i| if i % 10 < 6 { S1 } else { S2 }).collect();
        let windows: Vec<&[State]> = vec![&day, &day];
        let p = SmpParams::estimate(&windows, 6, 30);
        if let Some(pmf) = p.holding_pmf(S1, S2) {
            let total: f64 = pmf.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "pmf sums to {total}");
            assert_eq!(pmf.len(), 31);
            assert!(!pmf.is_empty());
        } else {
            panic!("expected S1->S2 transitions to be observed");
        }
    }

    #[test]
    fn holding_pmf_none_for_unobserved_transition() {
        let day = vec![S1; 11];
        let windows: Vec<&[State]> = vec![&day];
        let p = SmpParams::estimate(&windows, 6, 10);
        assert!(p.holding_pmf(S1, S5).is_none());
    }

    #[test]
    fn q_totals_match_row_sums() {
        let day: Vec<State> = (0..60)
            .map(|i| match i % 13 {
                0..=6 => S1,
                7..=9 => S2,
                10 => S4,
                _ => S1,
            })
            .collect();
        let p = SmpParams::estimate(&[&day], 6, 59);
        for from in [S1, S2] {
            for to in [S1, S2, S3, S4, S5] {
                if from == to {
                    continue;
                }
                let direct: f64 = (1..=p.horizon()).map(|l| p.kernel_at(from, to, l)).sum();
                assert_eq!(p.q(from, to).to_bits(), direct.to_bits());
            }
        }
    }

    #[test]
    fn solver_kernel_prefixes_match_cumulative_mass() {
        let day: Vec<State> = (0..80)
            .map(|i| match i % 17 {
                0..=9 => S1,
                10..=12 => S2,
                13 => S3,
                14 => S5,
                _ => S1,
            })
            .collect();
        let p = SmpParams::estimate(&[&day], 6, 79);
        let view = p.solver_kernel();
        for (i, from) in [S1, S2].into_iter().enumerate() {
            // The fast solver's cursor: lumped direct-failure mass through
            // step m.
            let events = view.direct_events(i);
            let (mut dp, mut cursor) = (0.0_f64, 0);
            for m in 0..=p.horizon() {
                while let Some(&(_, mass)) = events.get(cursor).filter(|e| e.0 <= m) {
                    dp += mass;
                    cursor += 1;
                }
                let cum: f64 = [S3, S4, S5]
                    .into_iter()
                    .map(|to| (1..=m).map(|l| p.kernel_at(from, to, l)).sum::<f64>())
                    .sum();
                assert!((dp - cum).abs() < 1e-15, "prefix mismatch at i={i} m={m}");
            }
        }
    }

    #[test]
    fn kernel_ignores_failure_sources_and_self_transitions() {
        let day: Vec<State> = (0..11).map(|i| if i < 5 { S1 } else { S3 }).collect();
        let windows: Vec<&[State]> = vec![&day];
        let p = SmpParams::estimate(&windows, 6, 10);
        assert_eq!(p.q(S3, S1), 0.0);
        assert_eq!(p.q(S1, S1), 0.0);
        assert_eq!(p.kernel_at(S5, S1, 3), 0.0);
    }

    #[test]
    fn empty_windows_give_empty_kernel() {
        let p = SmpParams::estimate(&[], 6, 10);
        assert_eq!(p.sojourn_counts(), [0, 0]);
        assert_eq!(p.q(S1, S3), 0.0);
    }

    #[test]
    fn horizon_caps_contributions() {
        // Transition at duration 8 with horizon 5: no event mass within horizon.
        let day: Vec<State> = (0..11).map(|i| if i < 8 { S1 } else { S3 }).collect();
        let windows: Vec<&[State]> = vec![&day];
        let p = SmpParams::estimate(&windows, 6, 5);
        assert_eq!(p.q(S1, S3), 0.0);
        assert_eq!(p.horizon(), 5);
    }

    #[test]
    fn from_kernel_round_trips() {
        let mut kernel: [[Vec<f64>; 4]; 2] = Default::default();
        for row in &mut kernel {
            for col in row.iter_mut() {
                *col = vec![0.0; 6];
            }
        }
        kernel[0][1][3] = 0.25; // q_{S1,S3}(3)
        let p = SmpParams::from_kernel(6, kernel);
        assert_eq!(p.horizon(), 5);
        assert_eq!(p.kernel_at(S1, S3, 3), 0.25);
        assert_eq!(p.q(S1, S3), 0.25);
    }

    #[test]
    fn json_round_trip_rebuilds_solver_view() {
        let day: Vec<State> = (0..40).map(|i| if i % 9 < 6 { S1 } else { S2 }).collect();
        let p = SmpParams::estimate(&[&day], 6, 39);
        let text = fgcs_runtime::json::to_string(&p);
        let back: SmpParams = fgcs_runtime::json::from_str(&text).unwrap();
        assert_eq!(p, back);
        assert_eq!(p.solver_kernel(), back.solver_kernel());
    }

    #[test]
    fn content_hash_tracks_equality() {
        let day: Vec<State> = (0..40).map(|i| if i % 9 < 6 { S1 } else { S2 }).collect();
        let a = SmpParams::estimate(&[&day], 6, 39);
        let b = SmpParams::estimate(&[&day], 6, 39);
        assert_eq!(a, b);
        assert_eq!(a.content_hash(), b.content_hash());
        // Memoized: repeated calls return the same value.
        assert_eq!(a.content_hash(), a.content_hash());
        // Different step size → different content (and, here, hash).
        let c = SmpParams::estimate(&[&day], 12, 39);
        assert_ne!(a, c);
        assert_ne!(a.content_hash(), c.content_hash());
        // A JSON round trip (fresh OnceLock) preserves both equality and
        // hash even when one side has already memoized.
        let text = fgcs_runtime::json::to_string(&a);
        let back: SmpParams = fgcs_runtime::json::from_str(&text).unwrap();
        assert_eq!(a, back);
        assert_eq!(a.content_hash(), back.content_hash());
    }

    #[test]
    fn json_rejects_inconsistent_kernel_rows() {
        let day: Vec<State> = (0..20).map(|i| if i % 3 == 0 { S2 } else { S1 }).collect();
        let p = SmpParams::estimate(&[&day], 6, 19);
        let text = fgcs_runtime::json::to_string(&p);
        let bad = text.replace("\"horizon\":19", "\"horizon\":7");
        assert!(fgcs_runtime::json::from_str::<SmpParams>(&bad).is_err());
    }

    #[test]
    fn json_bytes_are_pinned() {
        // Three days of S1 runs into S2, S3 or S4, S2 runs into S1 or S5,
        // and censored tails: masses on both rows and several failure
        // targets, survival below 1, and dense zeros around the mass.
        let day_a = [S1, S1, S1, S2, S2, S1, S1, S1, S1, S4, S1, S1];
        let day_b = [S1, S1, S1, S4, S2, S2, S2, S5, S1, S1, S1, S1];
        let day_c = [S1, S1, S2, S2, S2, S1, S1, S1, S3, S3, S1, S1, S1];
        let p = SmpParams::estimate(&[&day_a, &day_b, &day_c], 6, 5);
        assert_eq!(
            fgcs_runtime::json::to_string(&p),
            JSON_GOLDEN,
            "the SmpParams JSON form changed"
        );
        let back: SmpParams = fgcs_runtime::json::from_str(JSON_GOLDEN).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.content_hash(), p.content_hash());
    }

    const JSON_GOLDEN: &str = concat!(
        "{\"step_secs\":6,\"horizon\":5,\"kernel\":[",
        "[[0,0,0.14285714285714285,0.17142857142857146,0,0],[0,0,0,0.17142857142857146,0,0],",
        "[0,0,0,0.17142857142857146,0.3428571428571428,0],[0,0,0,0,0,0]],",
        "[[0,0,0.3333333333333333,0.33333333333333337,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],",
        "[0,0,0,0.33333333333333337,0,0]]],\"sojourns\":[8,3]}"
    );

    /// The dense estimator as it stood before the kernel went sparse: a
    /// per-sample run scan, `horizon + 1` tallies per (source, target),
    /// the product-limit over every step, and the event lists, row totals
    /// and content hash rescanned from the dense arrays. It is the bitwise
    /// reference for [`SmpParams::estimate`].
    mod dense_reference {
        use super::*;

        pub(super) struct Reference {
            pub(super) kernel: [[Vec<f64>; 4]; 2],
            pub(super) sojourns: [usize; 2],
            pub(super) q_total: [[f64; 4]; 2],
            pub(super) hash: u64,
        }

        impl Reference {
            pub(super) fn kernel_at(&self, from: State, to: State, holding: usize) -> f64 {
                let Some(i) = SOURCES.iter().position(|&s| s == from) else {
                    return 0.0;
                };
                let Some(k) = target_index(i, to) else {
                    return 0.0;
                };
                let horizon = self.kernel[0][0].len() - 1;
                if holding == 0 || holding > horizon {
                    return 0.0;
                }
                self.kernel[i][k][holding]
            }

            pub(super) fn q(&self, from: State, to: State) -> f64 {
                let Some(i) = SOURCES.iter().position(|&s| s == from) else {
                    return 0.0;
                };
                let Some(k) = target_index(i, to) else {
                    return 0.0;
                };
                self.q_total[i][k]
            }
        }

        pub(super) fn estimate(windows: &[&[State]], step_secs: u32, horizon: usize) -> Reference {
            let col = || vec![0.0_f64; horizon + 1];
            let mut events = [[col(), col(), col(), col()], [col(), col(), col(), col()]];
            let mut risk_diff = [vec![0i64; horizon + 2], vec![0i64; horizon + 2]];
            let mut sojourns = [0usize; 2];
            for window in windows {
                let len = window.len();
                let mut start = 0;
                while start < len {
                    let state = window[start];
                    let mut end = start;
                    while end + 1 < len && window[end + 1] == state {
                        end += 1;
                    }
                    if let Some(i) = SOURCES.iter().position(|&s| s == state) {
                        if end + 1 < len {
                            let duration = end + 1 - start;
                            sojourns[i] += 1;
                            let capped = duration.min(horizon);
                            if capped >= 1 {
                                risk_diff[i][1] += 1;
                                risk_diff[i][capped + 1] -= 1;
                            }
                            if duration <= horizon {
                                if let Some(k) = target_index(i, window[end + 1]) {
                                    events[i][k][duration] += 1.0;
                                }
                            }
                        } else if end > start {
                            sojourns[i] += 1;
                            let capped = (end - start).min(horizon);
                            risk_diff[i][1] += 1;
                            risk_diff[i][capped + 1] -= 1;
                        }
                    }
                    start = end + 1;
                }
            }
            for i in 0..2 {
                let mut at_risk: i64 = 0;
                let mut survival = 1.0_f64;
                for l in 1..=horizon {
                    at_risk += risk_diff[i][l];
                    if at_risk <= 0 {
                        for col in &mut events[i] {
                            for v in &mut col[l..] {
                                *v = 0.0;
                            }
                        }
                        break;
                    }
                    let n = at_risk as f64;
                    let mut total_hazard = 0.0;
                    for col in &mut events[i] {
                        let h = col[l] / n;
                        col[l] = survival * h;
                        total_hazard += h;
                    }
                    survival *= (1.0 - total_hazard).max(0.0);
                }
            }
            let mut q_total = [[0.0_f64; 4]; 2];
            let mut lists: [[Vec<(usize, f64)>; 4]; 2] = Default::default();
            for i in 0..2 {
                for k in 0..4 {
                    q_total[i][k] = events[i][k][1..].iter().sum();
                    for (l, &v) in events[i][k].iter().enumerate() {
                        if v != 0.0 {
                            lists[i][k].push((l, v));
                        }
                    }
                }
            }
            const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
            const PRIME: u64 = 0x0000_0100_0000_01b3;
            let mut h = OFFSET;
            let mut word = |w: u64| h = (h ^ w).wrapping_mul(PRIME);
            word(u64::from(step_secs));
            word(horizon as u64);
            word(sojourns[0] as u64);
            word(sojourns[1] as u64);
            for row in &lists {
                for list in row {
                    word(list.len() as u64);
                    for &(l, v) in list {
                        word(l as u64);
                        word(v.to_bits());
                    }
                }
            }
            Reference {
                kernel: events,
                sojourns,
                q_total,
                hash: h,
            }
        }
    }

    /// Random windows built from runs over all five states: failure-state
    /// runs, censored operational tails, single-sample windows and, with
    /// `windows` 0, empty input.
    fn random_windows(g: &mut Gen) -> Vec<Vec<State>> {
        const WEIGHTED: [State; 9] = [S1, S1, S1, S2, S2, S3, S4, S5, S1];
        let windows = g.usize_in(0, 6);
        (0..windows)
            .map(|_| {
                let len = g.usize_in(0, 160);
                let mut w = Vec::with_capacity(len);
                while w.len() < len {
                    let state = *g.pick(&WEIGHTED);
                    let run = g.usize_in(1, 70).min(len - w.len());
                    w.resize(w.len() + run, state);
                }
                w
            })
            .collect()
    }

    #[test]
    fn estimate_matches_dense_reference_bitwise() {
        check("estimate_matches_dense_reference", 400, |g| {
            let windows = random_windows(g);
            let longest = windows.iter().map(Vec::len).max().unwrap_or(0);
            // Horizon 0, horizons shorter than some sojourns, and horizons
            // past every window.
            let horizon = match g.usize_in(0, 4) {
                0 => 0,
                1 => g.usize_in(1, 12),
                2 => longest.saturating_sub(1),
                _ => longest + g.usize_in(0, 40),
            };
            let refs: Vec<&[State]> = windows.iter().map(Vec::as_slice).collect();
            let p = SmpParams::estimate(&refs, 6, horizon);
            let r = dense_reference::estimate(&refs, 6, horizon);
            let ctx = format!("horizon {horizon}, windows {windows:?}");
            ensure(p.sojourn_counts() == r.sojourns, &ctx)?;
            for from in State::ALL {
                for to in State::ALL {
                    for l in 0..=horizon + 1 {
                        let (a, b) = (p.kernel_at(from, to, l), r.kernel_at(from, to, l));
                        ensure(
                            a.to_bits() == b.to_bits(),
                            format!("kernel_at({from}, {to}, {l}): {a} vs {b}; {ctx}"),
                        )?;
                    }
                    let (a, b) = (p.q(from, to), r.q(from, to));
                    ensure(
                        a.to_bits() == b.to_bits(),
                        format!("q({from}, {to}): {a} vs {b}; {ctx}"),
                    )?;
                    let pmf = p.holding_pmf(from, to);
                    ensure(
                        pmf.is_some() == (b > 0.0),
                        format!("holding_pmf({from}, {to}) presence; {ctx}"),
                    )?;
                    if let Some(pmf) = pmf {
                        let i = SOURCES.iter().position(|&s| s == from).unwrap();
                        let row = &r.kernel[i][target_index(i, to).unwrap()];
                        ensure(pmf.len() == row.len(), &ctx)?;
                        for (l, (v, w)) in pmf.iter().zip(row).enumerate() {
                            let want = w / b;
                            ensure(
                                v.to_bits() == want.to_bits()
                                    && pmf.value(l).to_bits() == want.to_bits(),
                                format!("H_{{{from},{to}}}({l}): {v} vs {want}; {ctx}"),
                            )?;
                        }
                    }
                }
            }
            ensure(p.content_hash() == r.hash, format!("content_hash; {ctx}"))?;
            // The reference's dense rows through the JSON form: equal
            // content, equal hash, and the same bytes back out.
            let json = Json::Obj(vec![
                ("step_secs".to_string(), 6u32.to_json()),
                ("horizon".to_string(), horizon.to_json()),
                ("kernel".to_string(), r.kernel.to_json()),
                ("sojourns".to_string(), r.sojourns.to_json()),
            ]);
            let from_ref = SmpParams::from_json(&json).map_err(|e| e.to_string())?;
            ensure(from_ref == p, format!("==; {ctx}"))?;
            ensure(
                from_ref.content_hash() == r.hash,
                format!("content_hash via JSON; {ctx}"),
            )?;
            ensure(
                fgcs_runtime::json::to_string(&p) == json.to_string(),
                format!("JSON bytes; {ctx}"),
            )
        });
    }
}
