//! The production Eq.-3 solver: one lumped failure stream per operational
//! state, a reusable scratch arena, and O(1) holding-time terms.
//!
//! The paper-order [`super::solver::SparseSolver`] remains the oracle;
//! this module is where queries actually run. It restructures the same
//! recursion around four ideas:
//!
//! 1. **Lumped failure states.** Eq. 2 reads only the failure sum
//!    `F_i(m) = Σ_j P_{i,j}(m)`, the probability of having entered *any*
//!    failure state within `m` steps. The three failure states are
//!    absorbing and share one S1↔S2 convolution, so summing Eq. 3 over
//!    them gives a recursion of the same shape in `F` alone:
//!
//!    ```text
//!    F_1(m) = D_1(m) + Σ_{l ≤ m} q_{1,2}(l) · F_2(m − l)
//!    F_2(m) = D_2(m) + Σ_{l ≤ m} q_{2,1}(l) · F_1(m − l)
//!    ```
//!
//!    where `D_i(m)` is source `i`'s direct-failure mass through step `m`,
//!    summed over all three targets. Two streams replace the oracle's six,
//!    and each convolution term is one multiply-add instead of three.
//! 2. **One contiguous arena.** The two streams live in a single
//!    [`SolveScratch`] allocation as two planes of `steps + 1` slots, so a
//!    steady-state solve allocates nothing.
//! 3. **O(1) amortized direct-failure terms.** `D_i(m)` is a running sum
//!    that a cursor advances over source `i`'s failure events, which the
//!    kernel stores lumped, one mass `(q₃ + q₄) + q₅` per holding time
//!    ([`SolverKernel`](super::params) `direct`): each event is added once
//!    per solve, and the kernel holds no per-step table.
//! 4. **Event-cursor convolution.** The operational-transition convolution
//!    scans the sorted `(holding, mass)` event list once per step, with a
//!    cursor bounding the `l ≤ m` range instead of a per-event branch.
//!
//! The result differs from the paper's order only by floating-point
//! association: failure masses summed per holding time rather than per
//! target, direct mass first, then the transition events accumulated
//! across four independent lanes (which hides the add latency a single
//! running sum serializes on), and one clamp into `[0, 1]` per stream and
//! step where the oracle clamps each of its six. On kernels estimated
//! from three seeds of generated lab machines (21 days each) the largest
//! drift from the oracle over every horizon measured 6.7e-16 for 2-h
//! windows and 3.0e-15 for 24-h ones. The contract is the 1e-12 unit-scale
//! error budget at every horizon, property-tested in `tests/properties.rs`
//! (which also checks that the fast path reads only the lumped kernel) and
//! re-asserted by `bench_smoke` before it trusts any timing.

use std::cell::RefCell;

use crate::batch::TrCurve;
use crate::error::CoreError;
use crate::state::State;

use super::params::SmpParams;
use super::solver::reliability_from_failure;

/// A reusable solve arena: one contiguous `f64` buffer that holds both
/// streams a solve writes. Reusing one scratch across solves makes the
/// steady state allocation-free (asserted by `tests/alloc_free.rs`); the
/// buffer only grows, to the largest horizon seen.
#[derive(Debug, Default)]
pub struct SolveScratch {
    buf: Vec<f64>,
}

impl SolveScratch {
    /// Creates an empty scratch; the first solve sizes it.
    #[must_use]
    pub fn new() -> SolveScratch {
        SolveScratch::default()
    }

    /// Capacity in `f64` slots (diagnostics).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Two zeroed planes of `steps + 1` slots each, for `F_S1` and `F_S2`.
    fn planes(&mut self, steps: usize) -> (&mut [f64], &mut [f64]) {
        let n = steps + 1;
        if self.buf.len() < 2 * n {
            self.buf.resize(2 * n, 0.0);
        }
        let (f1, f2) = self.buf[..2 * n].split_at_mut(n);
        f1.fill(0.0);
        f2.fill(0.0);
        (f1, f2)
    }
}

/// One convolution step of one source: `direct + Σ_events q · other[m − l]`
/// over the events with `l ≤ m`. Four independent partial sums hide the
/// floating-point add latency that a single running sum serializes on;
/// they are combined pairwise at the end. The reassociation (relative to
/// a strict ascending-event sum) is part of the module's 1e-12 error
/// budget against the paper-order oracle.
// lint: no-alloc
#[inline]
fn convolve(events: &[(usize, f64)], other: &[f64], m: usize, direct: f64) -> f64 {
    let (mut a, mut b, mut c, mut e) = (direct, 0.0f64, 0.0f64, 0.0f64);
    let mut chunks = events.chunks_exact(4);
    for ch in chunks.by_ref() {
        a += ch[0].1 * other[m - ch[0].0];
        b += ch[1].1 * other[m - ch[1].0];
        c += ch[2].1 * other[m - ch[2].0];
        e += ch[3].1 * other[m - ch[3].0];
    }
    for &(l, q) in chunks.remainder() {
        a += q * other[m - l];
    }
    (a + b) + (c + e)
}

/// Adds the lumped direct-failure masses with holding time `l ≤ m` not
/// yet summed into `sum`, moving `cursor` past them. Events arrive in
/// ascending holding order, so the sum takes them in ascending `l`.
// lint: no-alloc
#[inline]
fn advance_direct(events: &[(usize, f64)], cursor: &mut usize, m: usize, sum: &mut f64) {
    while let Some(&(l, mass)) = events.get(*cursor) {
        if l > m {
            break;
        }
        *sum += mass;
        *cursor += 1;
    }
}

thread_local! {
    static THREAD_SCRATCH: RefCell<SolveScratch> = RefCell::new(SolveScratch::new());
}

/// Runs `f` with this thread's reusable [`SolveScratch`]. Parallel cluster
/// sweeps get one scratch per worker thread for free; re-entrant calls
/// (solver inside solver) fall back to a fresh arena.
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut SolveScratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut SolveScratch::new()),
    })
}

/// The fast Eq.-3 solver over a precomputed [`SmpParams`] kernel view.
///
/// Construction is free (the event lists already live in the params,
/// shared through the `QhCache`'s `Arc`); a solve costs
/// `O(steps · nnz)` with no allocation when given a warm scratch.
#[derive(Debug, Clone, Copy)]
pub struct FastSolver<'a> {
    params: &'a SmpParams,
}

impl<'a> FastSolver<'a> {
    /// Wraps the estimated parameters.
    #[must_use]
    pub fn new(params: &'a SmpParams) -> FastSolver<'a> {
        FastSolver { params }
    }

    fn check_horizon(&self, steps: usize) -> Result<(), CoreError> {
        if steps > self.params.horizon() {
            return Err(CoreError::HorizonTooLong {
                requested: steps,
                available: self.params.horizon(),
            });
        }
        Ok(())
    }

    /// Runs the lumped recursion into the scratch planes and returns the
    /// failure streams `(F_S1(m), F_S2(m))` for `m = 0..=steps`. The caller
    /// has already validated `steps`.
    // lint: no-alloc
    fn run<'s>(&self, scratch: &'s mut SolveScratch, steps: usize) -> (&'s [f64], &'s [f64]) {
        fgcs_runtime::counter_add!("core.solver.fast_runs", 1);
        fgcs_runtime::counter_add!("core.solver.fast_steps", steps as u64);
        let view = self.params.solver_kernel();
        let (ev1, ev2) = (view.trans_events(0), view.trans_events(1));
        let (dir1, dir2) = (view.direct_events(0), view.direct_events(1));
        let (f1, f2) = scratch.planes(steps);
        // Cursors bounding the `holding ≤ m` prefix of each event list.
        let (mut end1, mut end2) = (0usize, 0usize);
        // Lumped direct-failure mass through step m, `D_i(m)`.
        let (mut d1, mut d2) = (0.0f64, 0.0f64);
        let (mut c1, mut c2) = (0usize, 0usize);
        for m in 1..=steps {
            while end1 < ev1.len() && ev1[end1].0 <= m {
                end1 += 1;
            }
            while end2 < ev2.len() && ev2[end2].0 <= m {
                end2 += 1;
            }
            advance_direct(dir1, &mut c1, m, &mut d1);
            advance_direct(dir2, &mut c2, m, &mut d2);
            // Both sums are taken before either slot m is written, so a
            // holding-time-0 event (the oracle's `l = 1..=m` skips it)
            // reads a zeroed slot and adds nothing.
            let g1 = convolve(&ev1[..end1], f2, m, d1);
            let g2 = convolve(&ev2[..end2], f1, m, d2);
            f1[m] = g1.clamp(0.0, 1.0);
            f2[m] = g2.clamp(0.0, 1.0);
        }
        (f1, f2)
    }

    /// `[F_S1, F_S2]` at horizon `steps`: the probability of having
    /// entered any failure state from each operational initial state,
    /// using the caller's scratch (allocation-free when warm).
    pub fn failure_probabilities_with(
        &self,
        scratch: &mut SolveScratch,
        steps: usize,
    ) -> Result<[f64; 2], CoreError> {
        self.check_horizon(steps)?;
        let (f1, f2) = self.run(scratch, steps);
        Ok([f1[steps], f2[steps]])
    }

    /// `[F_S1, F_S2]` at horizon `steps`, using the thread-local scratch.
    pub fn failure_probabilities(&self, steps: usize) -> Result<[f64; 2], CoreError> {
        with_thread_scratch(|scratch| self.failure_probabilities_with(scratch, steps))
    }

    /// Temporal reliability `TR = 1 − F_init(steps)` with the caller's
    /// scratch: the zero-allocation steady-state query.
    pub fn temporal_reliability_with(
        &self,
        scratch: &mut SolveScratch,
        init: State,
        steps: usize,
    ) -> Result<f64, CoreError> {
        if init.is_failure() {
            return Err(CoreError::FailureInitialState(init));
        }
        let failures = self.failure_probabilities_with(scratch, steps)?;
        Ok(reliability_from_failure(failures[init.index()]))
    }

    /// Temporal reliability with the thread-local scratch.
    pub fn temporal_reliability(&self, init: State, steps: usize) -> Result<f64, CoreError> {
        with_thread_scratch(|scratch| self.temporal_reliability_with(scratch, init, steps))
    }

    /// The materialized [`TrCurve`] for both operational initial states
    /// from one run, allocating only the two output curves.
    pub fn tr_curve_with(
        &self,
        scratch: &mut SolveScratch,
        steps: usize,
    ) -> Result<TrCurve, CoreError> {
        self.check_horizon(steps)?;
        let (f1, f2) = self.run(scratch, steps);
        Ok(TrCurve::from_failures(
            self.params.step_secs(),
            steps,
            |m| [f1[m], f2[m]],
        ))
    }

    /// [`TrCurve`] with the thread-local scratch.
    pub fn tr_curve(&self, steps: usize) -> Result<TrCurve, CoreError> {
        with_thread_scratch(|scratch| self.tr_curve_with(scratch, steps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smp::solver::SparseSolver;
    use State::*;

    fn estimated_params() -> SmpParams {
        let day: Vec<State> = (0..400)
            .map(|i| match i % 53 {
                0..=24 => S1,
                25..=39 => S2,
                40..=44 => S3,
                45..=48 => S1,
                _ => S5,
            })
            .collect();
        let windows: Vec<&[State]> = vec![&day];
        SmpParams::estimate(&windows, 6, 399)
    }

    /// The unit-scale error budget the fast path guarantees against the
    /// paper-order oracle.
    fn within_budget(fast: f64, oracle: f64) -> bool {
        (fast - oracle).abs() <= 1e-12 * oracle.abs().max(1.0)
    }

    #[test]
    fn matches_paper_oracle_within_budget() {
        let params = estimated_params();
        let fast = FastSolver::new(&params);
        let oracle = SparseSolver::new(&params);
        for init in [S1, S2] {
            for steps in [0usize, 1, 7, 50, 200, 399] {
                let f = fast.temporal_reliability(init, steps).unwrap();
                let o = oracle.temporal_reliability(init, steps).unwrap();
                assert!(within_budget(f, o), "init {init} steps {steps}: {f} vs {o}");
            }
        }
    }

    #[test]
    fn explicit_scratch_matches_thread_scratch() {
        let params = estimated_params();
        let fast = FastSolver::new(&params);
        let mut scratch = SolveScratch::new();
        for steps in [0usize, 13, 399] {
            let a = fast
                .temporal_reliability_with(&mut scratch, S1, steps)
                .unwrap();
            let b = fast.temporal_reliability(S1, steps).unwrap();
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn scratch_reuse_is_clean_across_horizons() {
        // A long solve followed by a short one must not see stale values.
        let params = estimated_params();
        let fast = FastSolver::new(&params);
        let mut scratch = SolveScratch::new();
        let long = fast
            .temporal_reliability_with(&mut scratch, S1, 399)
            .unwrap();
        let short = fast
            .temporal_reliability_with(&mut scratch, S1, 50)
            .unwrap();
        let mut fresh = SolveScratch::new();
        let short_fresh = fast.temporal_reliability_with(&mut fresh, S1, 50).unwrap();
        assert_eq!(short.to_bits(), short_fresh.to_bits());
        assert!(long <= short);
    }

    #[test]
    fn tr_curve_matches_scalar_solves_and_oracle() {
        let params = estimated_params();
        let fast = FastSolver::new(&params);
        let oracle = SparseSolver::new(&params);
        let curve = fast.tr_curve(200).unwrap();
        let oracle_curve = oracle.tr_curve(200).unwrap();
        for m in 0..=200usize {
            let direct = fast.temporal_reliability(S1, m).unwrap();
            assert_eq!(curve.tr(S1, m).unwrap().to_bits(), direct.to_bits());
            let o = oracle_curve.tr(S1, m).unwrap();
            assert!(within_budget(direct, o), "m = {m}");
        }
    }

    #[test]
    fn rejects_failure_init_and_long_horizons() {
        let params = estimated_params();
        let fast = FastSolver::new(&params);
        assert!(matches!(
            fast.temporal_reliability(S3, 10),
            Err(CoreError::FailureInitialState(S3))
        ));
        assert!(matches!(
            fast.temporal_reliability(S1, 400),
            Err(CoreError::HorizonTooLong {
                requested: 400,
                available: 399
            })
        ));
        assert!(fast.tr_curve(10).unwrap().curve(S5).is_err());
        assert!(fast.tr_curve(400).is_err());
    }

    #[test]
    fn empty_kernel_gives_unit_reliability_without_growth() {
        let params = SmpParams::estimate(&[], 6, 100);
        let fast = FastSolver::new(&params);
        let mut scratch = SolveScratch::new();
        assert_eq!(
            fast.temporal_reliability_with(&mut scratch, S1, 100)
                .unwrap(),
            1.0
        );
        let cap = scratch.capacity();
        assert_eq!(
            fast.temporal_reliability_with(&mut scratch, S2, 100)
                .unwrap(),
            1.0
        );
        assert_eq!(scratch.capacity(), cap, "warm solve must not reallocate");
    }
}
