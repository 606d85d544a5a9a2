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
//! Besides the raw kernel, [`SmpParams`] carries a derived `SolverKernel`:
//! sorted `(holding, mass)` event lists, prefix sums of the direct-failure
//! mass, and per-row `Q` totals. These are built once at estimation (or
//! deserialization) time, so every solve and every `Qh` lookup afterwards is
//! allocation-free and O(1) per term — and a cached `Arc<SmpParams>` shares
//! them across all consumers.

use std::sync::OnceLock;

use fgcs_runtime::json::{FromJson, Json, JsonError, ToJson};

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

/// Precomputed solver-facing view of the kernel, derived from the raw
/// `q_{i,k}(l)` arrays once per estimate and shared by every solve:
///
/// * `trans[i]` — ascending `(holding, mass)` events of the operational
///   transition (`S1→S2` / `S2→S1`), the only lists the Eq.-3 convolution
///   has to scan;
/// * `failures[i][j]` — ascending events towards failure state `S(3+j)`
///   (part of the kernel-dedup content hash);
/// * `direct_prefix[i]` — triple-interleaved prefix sums
///   `dp[3·m + j] = Σ_{l ≤ m} q_{i,S(3+j)}(l)`, making every direct-failure
///   term of the recursion a single O(1) load;
/// * `q_total[i][k]` — the embedded transition probabilities
///   `Q_i(k) = Σ_l q_{i,k}(l)`, making [`SmpParams::q`] and the
///   holding-time pmf normalisers O(1).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SolverKernel {
    trans: [Vec<(usize, f64)>; 2],
    failures: [[Vec<(usize, f64)>; 3]; 2],
    direct_prefix: [Vec<f64>; 2],
    q_total: [[f64; 4]; 2],
}

impl SolverKernel {
    /// Builds the derived structures from the raw kernel arrays.
    fn build(kernel: &[[Vec<f64>; 4]; 2], horizon: usize) -> SolverKernel {
        let mut trans: [Vec<(usize, f64)>; 2] = Default::default();
        let mut failures: [[Vec<(usize, f64)>; 3]; 2] = Default::default();
        let mut direct_prefix: [Vec<f64>; 2] = Default::default();
        let mut q_total = [[0.0_f64; 4]; 2];
        for i in 0..2 {
            for (l, &v) in kernel[i][0].iter().enumerate() {
                if v != 0.0 {
                    trans[i].push((l, v));
                }
            }
            for j in 0..3 {
                for (l, &v) in kernel[i][j + 1].iter().enumerate() {
                    if v != 0.0 {
                        failures[i][j].push((l, v));
                    }
                }
            }
            // Prefix sums accumulate every l in ascending order — the same
            // nonzero additions (zeros are exact no-ops) the event-cursor
            // formulation performs, so downstream sums are bit-equal.
            let mut dp = vec![0.0_f64; 3 * (horizon + 1)];
            for m in 1..=horizon {
                for j in 0..3 {
                    dp[3 * m + j] = dp[3 * (m - 1) + j] + kernel[i][j + 1][m];
                }
            }
            direct_prefix[i] = dp;
            for k in 0..4 {
                // Same reduction order as `kernel[i][k][1..].iter().sum()`.
                q_total[i][k] = kernel[i][k][1..].iter().sum();
            }
        }
        SolverKernel {
            trans,
            failures,
            direct_prefix,
            q_total,
        }
    }

    /// Ascending `(holding, mass)` events of the operational transition out
    /// of source `i`.
    #[must_use]
    pub(crate) fn trans_events(&self, source_idx: usize) -> &[(usize, f64)] {
        &self.trans[source_idx]
    }

    /// Triple-interleaved direct-failure prefix sums for source `i`:
    /// `dp[3·m + j] = Σ_{l ≤ m} q_{i,S(3+j)}(l)`.
    #[must_use]
    pub(crate) fn direct_prefix(&self, source_idx: usize) -> &[f64] {
        &self.direct_prefix[source_idx]
    }
}

/// The estimated SMP parameters: the sparse semi-Markov kernel
/// `q_{i,k}(l)` for `i ∈ {S1, S2}`, `k ∈ {other, S3, S4, S5}` and
/// `l ∈ 1..=horizon` steps, plus the precomputed `SolverKernel` view.
#[derive(Debug, Clone)]
pub struct SmpParams {
    step_secs: u32,
    horizon: usize,
    /// `kernel[i][k][l]`; index `l = 0` is unused and kept at 0 so that the
    /// solver can index by holding time directly.
    kernel: [[Vec<f64>; 4]; 2],
    /// Number of sojourns observed per source state (diagnostics).
    sojourns: [usize; 2],
    /// Derived, not serialized: rebuilt from `kernel` on deserialization.
    solver: SolverKernel,
    /// Lazy FNV-1a content hash (the kernel-dedup lookup key). Derived, so
    /// excluded from equality and serialization.
    hash: OnceLock<u64>,
}

// Manual equality over the content fields only. `solver` is a pure function
// of `(kernel, horizon)` and `hash` is a lazy memo — including either would
// make content-equal values compare unequal depending on what has been
// computed so far (`OnceLock` equality compares `get()` results).
impl PartialEq for SmpParams {
    fn eq(&self, other: &SmpParams) -> bool {
        self.step_secs == other.step_secs
            && self.horizon == other.horizon
            && self.sojourns == other.sojourns
            && self.kernel == other.kernel
    }
}

// `solver` is derived state, so the JSON form carries only the four
// original fields (same wire layout `impl_json_struct!` produced before the
// derived view existed) and rebuilds the view on parse.
impl ToJson for SmpParams {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("step_secs".to_string(), self.step_secs.to_json()),
            ("horizon".to_string(), self.horizon.to_json()),
            ("kernel".to_string(), self.kernel.to_json()),
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
        Ok(SmpParams::from_parts(step_secs, horizon, kernel, sojourns))
    }
}

/// A borrowed view of the holding-time mass function
/// `H_{i,k}(l) = q_{i,k}(l) / Q_i(k)`: values are produced on demand from
/// the kernel row and its precomputed total, so taking the pmf allocates
/// nothing.
#[derive(Debug, Clone, Copy)]
pub struct HoldingPmf<'a> {
    masses: &'a [f64],
    total: f64,
}

impl HoldingPmf<'_> {
    /// Number of entries (`horizon + 1`; index 0 is the unused `l = 0`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.masses.len()
    }

    /// Whether the view has no entries (never true for a valid kernel).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.masses.is_empty()
    }

    /// `H(l)` — the probability the holding time is exactly `l` steps,
    /// conditioned on the transition happening.
    ///
    /// # Panics
    /// Panics when `l >= self.len()`.
    #[must_use]
    pub fn value(&self, l: usize) -> f64 {
        self.masses[l] / self.total
    }

    /// Iterates `H(l)` for `l = 0..len`.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.masses.iter().map(|v| v / self.total)
    }
}

/// One sojourn run decomposed from a window slice: either a completed
/// sojourn (the process left its source state within the window) or a
/// right-censored one (still in the source state at the window edge).
///
/// Runs are the unit the incremental estimator logs per day: replaying a
/// day's runs through [`SojournAccumulator::record`] reproduces exactly the
/// tally updates [`SojournAccumulator::push_window`] would have made, so
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

/// Decomposes one window slice into its operational sojourn runs, emitting
/// each through `emit` in left-to-right order. Runs starting in failure
/// states are not emitted (they carry no kernel information).
pub(crate) fn decompose_window(window: &[State], emit: &mut impl FnMut(SojournRun)) {
    let len = window.len();
    let mut start = 0;
    while start < len {
        let state = window[start];
        let mut end = start;
        while end + 1 < len && window[end + 1] == state {
            end += 1;
        }
        if let Some(source_idx) = SOURCES.iter().position(|&s| s == state) {
            if end + 1 < len {
                emit(SojournRun::Completed {
                    source_idx,
                    duration: end + 1 - start,
                    target: window[end + 1],
                });
            } else {
                emit(SojournRun::Censored {
                    source_idx,
                    at_risk: end - start,
                });
            }
        }
        start = end + 1;
    }
}

/// Streaming single-pass estimator for [`SmpParams`]: feed window slices
/// one at a time, then [`finish`](SojournAccumulator::finish).
///
/// Unlike a batch formulation that first materializes per-window sojourn
/// lists, the accumulator decomposes each window in place and updates the
/// event and at-risk tallies directly — `push_window` performs no heap
/// allocation, and `finish` converts the tallies into the kernel inside the
/// buffers they were counted in. This is the shape an O(1)-per-sample
/// online update (ROADMAP item 1) extends.
#[derive(Debug, Clone)]
pub struct SojournAccumulator {
    step_secs: u32,
    horizon: usize,
    /// `events[i][k][l]` — transition counts (exact in f64 for any
    /// realistic tally); reused as kernel storage by `finish`.
    events: [[Vec<f64>; 4]; 2],
    /// Difference array for the at-risk counts.
    risk_diff: [Vec<i64>; 2],
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
        let col = || vec![0.0_f64; horizon + 1];
        SojournAccumulator {
            step_secs,
            horizon,
            events: [[col(), col(), col(), col()], [col(), col(), col(), col()]],
            risk_diff: [vec![0i64; horizon + 2], vec![0i64; horizon + 2]],
            sojourns: [0usize; 2],
        }
    }

    /// Folds one window slice (the `steps + 1` fence-post samples of one
    /// historical day's window) into the tallies. Slices shorter than 2
    /// samples contribute nothing. Allocation-free.
    pub fn push_window(&mut self, window: &[State]) {
        decompose_window(window, &mut |run| self.record(run));
    }

    /// Folds one decomposed sojourn run into the tallies — the single tally
    /// rule shared by [`push_window`](SojournAccumulator::push_window) and
    /// the incremental estimator's per-day replay. Event counts are integer
    /// additions in `f64` (exact for any realistic tally), so replaying runs
    /// in any order yields bitwise-identical tallies.
    pub(crate) fn record(&mut self, run: SojournRun) {
        match run {
            SojournRun::Completed {
                source_idx,
                duration,
                target,
            } => {
                self.sojourns[source_idx] += 1;
                let capped = duration.min(self.horizon);
                if capped >= 1 {
                    self.risk_diff[source_idx][1] += 1;
                    self.risk_diff[source_idx][capped + 1] -= 1;
                }
                if duration <= self.horizon {
                    if let Some(k) = target_index(source_idx, target) {
                        self.events[source_idx][k][duration] += 1.0;
                    }
                }
            }
            SojournRun::Censored {
                source_idx,
                at_risk,
            } => {
                // The final sample gives no transition information, so the
                // run is only informative with at least one at-risk step.
                if at_risk >= 1 {
                    self.sojourns[source_idx] += 1;
                    let capped = at_risk.min(self.horizon);
                    self.risk_diff[source_idx][1] += 1;
                    self.risk_diff[source_idx][capped + 1] -= 1;
                }
            }
        }
    }

    /// Number of sojourns accumulated so far per source state.
    #[must_use]
    pub fn sojourn_counts(&self) -> [usize; 2] {
        self.sojourns
    }

    /// Converts the tallies into estimated parameters. The event-count
    /// buffers are transformed into the kernel in place — no intermediate
    /// arrays are allocated.
    #[must_use]
    pub fn finish(self) -> SmpParams {
        let SojournAccumulator {
            step_secs,
            horizon,
            mut events,
            risk_diff,
            sojourns,
        } = self;
        // Product-limit: q_{i,k}(l) = S_i(l-1) * h_{i,k}(l),
        // S_i(l) = S_i(l-1) * (1 - Σ_k h_{i,k}(l)).
        for i in 0..2 {
            let mut at_risk: i64 = 0;
            let mut survival = 1.0_f64;
            for l in 1..=horizon {
                at_risk += risk_diff[i][l];
                if at_risk <= 0 {
                    // No information at longer durations; clear any residual
                    // counts so they cannot read as kernel mass.
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
        let solver = SolverKernel::build(&events, horizon);
        SmpParams {
            step_secs,
            horizon,
            kernel: events,
            sojourns,
            solver,
            hash: OnceLock::new(),
        }
    }
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
    /// out-of-range holding times.
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
        self.kernel[i][k][holding]
    }

    /// Raw kernel row for a source state index (0 → S1, 1 → S2), in target
    /// order `[other, S3, S4, S5]`. Used by the paper-order solver.
    #[must_use]
    pub(crate) fn row(&self, source_idx: usize) -> &[Vec<f64>; 4] {
        &self.kernel[source_idx]
    }

    /// The precomputed solver-facing view (event lists, prefix sums,
    /// row totals).
    #[must_use]
    pub(crate) fn solver_kernel(&self) -> &SolverKernel {
        &self.solver
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
        self.solver.q_total[i][k]
    }

    /// The holding-time mass function `H_{i,k}(l) = q_{i,k}(l) / Q_i(k)` for
    /// `l ∈ 0..=horizon` as a borrowed, allocation-free [`HoldingPmf`] view,
    /// or `None` when the transition has zero estimated probability (H is
    /// then undefined).
    #[must_use]
    pub fn holding_pmf(&self, from: State, to: State) -> Option<HoldingPmf<'_>> {
        let i = SOURCES.iter().position(|&s| s == from)?;
        let k = target_index(i, to)?;
        let total = self.solver.q_total[i][k];
        if total <= 0.0 {
            return None;
        }
        Some(HoldingPmf {
            masses: &self.kernel[i][k],
            total,
        })
    }

    /// Builds parameters directly from a kernel (used by tests and the
    /// noise-free analytic fixtures).
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
        SmpParams::from_parts(step_secs, horizon, kernel, [0, 0])
    }

    /// Internal constructor that (re)builds the derived solver view.
    fn from_parts(
        step_secs: u32,
        horizon: usize,
        kernel: [[Vec<f64>; 4]; 2],
        sojourns: [usize; 2],
    ) -> SmpParams {
        let solver = SolverKernel::build(&kernel, horizon);
        SmpParams {
            step_secs,
            horizon,
            kernel,
            sojourns,
            solver,
            hash: OnceLock::new(),
        }
    }

    /// FNV-1a hash of the estimate's content — the kernel-dedup lookup key.
    ///
    /// Hashes the compact solver view (the nonzero `(holding, mass)` events,
    /// which together with `horizon` determine the full kernel arrays) plus
    /// `step_secs` and the sojourn counts, word-wise over the `f64` bit
    /// patterns. Computed once on first use and memoized; equal content
    /// always hashes equal, and the dedup table falls back to full
    /// [`PartialEq`] on hash match, so collisions cost a comparison, never
    /// correctness.
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
            for i in 0..2 {
                word(self.solver.trans[i].len() as u64);
                for &(l, v) in &self.solver.trans[i] {
                    word(l as u64);
                    word(v.to_bits());
                }
                for j in 0..3 {
                    word(self.solver.failures[i][j].len() as u64);
                    for &(l, v) in &self.solver.failures[i][j] {
                        word(l as u64);
                        word(v.to_bits());
                    }
                }
            }
            h
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use State::*;

    #[test]
    fn accumulator_identifies_completed_and_censored() {
        let w = [S1, S1, S2, S2, S2, S1];
        let mut acc = SojournAccumulator::new(6, 10);
        acc.push_window(&w);
        // S1 completes after 2 steps to S2; S2 completes after 3 steps to
        // S1; the trailing single-sample S1 run has no at-risk time.
        assert_eq!(acc.sojourn_counts(), [1, 1]);
        assert_eq!(acc.events[0][0][2], 1.0);
        assert_eq!(acc.events[1][0][3], 1.0);
    }

    #[test]
    fn accumulator_censors_trailing_run() {
        let w = [S1, S1, S1, S1];
        let mut acc = SojournAccumulator::new(6, 10);
        acc.push_window(&w);
        assert_eq!(acc.sojourn_counts(), [1, 0]);
        // Censored: at-risk for 3 steps, no event recorded anywhere.
        assert!(acc.events.iter().flatten().flatten().all(|&v| v == 0.0));
        assert_eq!(acc.risk_diff[0][1], 1);
        assert_eq!(acc.risk_diff[0][4], -1);
    }

    #[test]
    fn accumulator_skips_failure_runs() {
        let w = [S1, S3, S3, S2, S2];
        let mut acc = SojournAccumulator::new(6, 10);
        acc.push_window(&w);
        // S1 completes to S3 after 1 step; the S3 run is skipped; the S2
        // run is censored with 1 at-risk step.
        assert_eq!(acc.sojourn_counts(), [1, 1]);
        assert_eq!(acc.events[0][1][1], 1.0);
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
            let dp = view.direct_prefix(i);
            for m in 0..=p.horizon() {
                for (j, to) in [S3, S4, S5].into_iter().enumerate() {
                    let cum: f64 = (1..=m).map(|l| p.kernel_at(from, to, l)).sum();
                    assert!(
                        (dp[3 * m + j] - cum).abs() < 1e-15,
                        "prefix mismatch at i={i} m={m} j={j}"
                    );
                }
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
}
