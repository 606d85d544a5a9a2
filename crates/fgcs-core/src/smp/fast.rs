//! The production Eq.-3 solver: one lumped failure stream per operational
//! state, a reusable scratch arena, a solve that starts at the first
//! failure mass, and far transition events summed a block of steps at a
//! time.
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
//!    [`SolveScratch`] allocation as two planes, so a steady-state solve
//!    allocates nothing.
//! 3. **Start at the first failure mass.** The kernel stores the failure
//!    rows lumped, one mass `(q₃ + q₄) + q₅` per holding time
//!    ([`SolverKernel`](super::params) `direct`). Both streams are exactly
//!    0 before `L`, the smallest holding time with such mass from either
//!    source, so the solve starts at `L`, and a kernel with no failure mass
//!    solves to `TR = 1` exactly without a step. Every term the skipped
//!    prefix would have added is an exact zero, so this moves no bit. On
//!    the wire benchmark's synthesized hosts a fifth of the kernels have no
//!    failure mass, and about 30 % of a window's steps lie before `L`.
//! 4. **Far events a block at a time.** The steps run in blocks of
//!    `BLOCK` = 16. In the block starting at `m0`, a transition event
//!    with `l ≥ BLOCK` reads only `F` values from before `m0`, which are
//!    solved, so it is summed before the block as one fixed-width,
//!    contiguous multiply-add into sixteen lanes, which the compiler turns
//!    into vector instructions. Each plane starts with `BLOCK` zero slots
//!    for the steps before 0, so an event whose holding time falls inside
//!    the block reads zeros until it applies and joins the block sum too.
//!    The lanes start from `D_i(m)`, so only the near events
//!    (`l < BLOCK`), which may read the block being solved, still run per
//!    step. Events whose reads all fall before `L` are skipped.
//!
//! The result differs from the paper's order only by floating-point
//! association: failure masses summed per holding time rather than per
//! target; per step, the direct mass first, then the transition events in
//! descending holding time (the far ones a block ahead), so the value
//! solved one step ago is the last add; and one clamp into `[0, 1]` per
//! stream and step where the oracle clamps each of its six. On kernels
//! estimated from three seeds of generated lab machines (21 days each) the
//! largest drift from the oracle over every horizon measured 7.8e-16 for
//! 2-h windows and 3.0e-15 for 24-h ones; on 2 880 kernels estimated from
//! the wire benchmark's synthesizer (seeds 1–3, 30-min to 2-h windows) it
//! measured 8.9e-16. The per-step four-lane sum this replaced measured
//! 6.7e-16, 3.0e-15 and 7.8e-16. The contract is the 1e-12 unit-scale
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

    /// Two planes for `F_S1` and `F_S2`: each [`BLOCK`] slots that stand
    /// for the steps before 0, then `steps + 1` slots. The slots before
    /// step `zeroed` (at most `steps + 1`) are zeroed; the solve writes the
    /// rest before reading them.
    fn planes(&mut self, steps: usize, zeroed: usize) -> (&mut [f64], &mut [f64]) {
        let n = BLOCK + steps + 1;
        if self.buf.len() < 2 * n {
            self.buf.resize(2 * n, 0.0);
        }
        let (f1, f2) = self.buf[..2 * n].split_at_mut(n);
        f1[..BLOCK + zeroed].fill(0.0);
        f2[..BLOCK + zeroed].fill(0.0);
        (f1, f2)
    }
}

/// Steps per block of the far-event sums. A constant, so each far event's
/// block sum is one fixed-width, contiguous multiply-add.
const BLOCK: usize = 16;

/// One source's half of the lumped recursion,
/// `F_i(m) = D_i(m) + Σ_{1 ≤ l ≤ m} q(l) · F_o(m − l)`: its operational
/// transition events split at [`BLOCK`], its lumped direct-failure events,
/// and the cursors a solve moves over them. Every cursor only advances.
///
/// The planes it reads are padded: `F_o(m)` sits at slot `BLOCK + m`, and
/// the [`BLOCK`] slots before it are the zeros `F_o` has before step 0. A
/// read `F_o(m − l)` with `l > m` lands in the pad and adds an exact zero,
/// so no read needs a bound on `l`.
struct Source<'k> {
    /// Transition events with `1 ≤ l < BLOCK`. Their reads may fall in the
    /// block being solved, so they run per step.
    near: &'k [(usize, f64)],
    /// Transition events with `l ≥ BLOCK`, whose reads in a block all fall
    /// before it.
    far: &'k [(usize, f64)],
    /// Lumped direct-failure events, ascending in `l`.
    direct: &'k [(usize, f64)],
    /// `far[..far_end]`: the far events the current block sums.
    far_end: usize,
    /// `direct[..direct_end]` are summed into `d`.
    direct_end: usize,
    /// `D_i` through the last direct event summed.
    d: f64,
}

impl<'k> Source<'k> {
    fn new(trans: &'k [(usize, f64)], direct: &'k [(usize, f64)]) -> Source<'k> {
        // A holding-time-0 event adds nothing (the oracle sums l = 1..=m).
        let trans = &trans[trans.partition_point(|&(l, _)| l == 0)..];
        let (near, far) = trans.split_at(trans.partition_point(|&(l, _)| l < BLOCK));
        Source {
            near,
            far,
            direct,
            far_end: 0,
            direct_end: 0,
            d: 0.0,
        }
    }

    /// The block of steps `m0..m0 + BLOCK` before its near events: lane `j`
    /// holds `D_i(m0 + j)` plus `Σ q(l) · F_o(m0 + j − l)` over the far
    /// events. Blocks start at `start` (`L`), `L + BLOCK`, …; a far event
    /// joins once one of its reads in the block reaches step `L`, before
    /// which both streams are 0.
    // lint: no-alloc
    #[inline]
    fn block_sums(&mut self, other: &[f64], m0: usize, start: usize) -> [f64; BLOCK] {
        let mut sums = [self.d; BLOCK];
        while let Some(&(l, mass)) = self.direct.get(self.direct_end) {
            if l >= m0 + BLOCK {
                break;
            }
            self.d += mass;
            self.direct_end += 1;
            sums[l - m0..].fill(self.d);
        }
        let reach = m0 + BLOCK - 1 - start;
        while self.far.get(self.far_end).is_some_and(|&(l, _)| l <= reach) {
            self.far_end += 1;
        }
        for &(l, q) in self.far[..self.far_end].iter().rev() {
            let reads: &[f64; BLOCK] = other[BLOCK + m0 - l..][..BLOCK]
                .try_into()
                .expect("a block of reads");
            for (sum, &f) in sums.iter_mut().zip(reads) {
                *sum += q * f;
            }
        }
        sums
    }

    /// `F_i(m)` before its clamp: its lane of [`Source::block_sums`] plus
    /// the near events in descending holding time, so the value solved
    /// one step ago is the last add.
    // lint: no-alloc
    #[inline]
    fn step(&self, other: &[f64], m: usize, lane: f64) -> f64 {
        let mut sum = lane;
        for &(l, q) in self.near.iter().rev() {
            sum += q * other[BLOCK + m - l];
        }
        sum
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

    /// L, the first step a solve to horizon `steps` runs: both streams are
    /// exactly 0 before the first holding time with direct-failure mass
    /// from either source. With none within the horizon it is `steps + 1`:
    /// no step runs and TR is exactly 1. A solve runs `steps + 1 − L`
    /// steps, which is what `core.solver.fast_steps` counts.
    fn first_failure_step(&self, steps: usize) -> usize {
        let view = self.params.solver_kernel();
        [view.direct_events(0), view.direct_events(1)]
            .iter()
            .filter_map(|events| events.first().map(|&(l, _)| l))
            .fold(steps + 1, usize::min)
    }

    /// Runs the lumped recursion into the scratch planes and returns the
    /// failure streams `(F_S1(m), F_S2(m))` for `m = 0..=steps`. The caller
    /// has already validated `steps`.
    // lint: no-alloc
    fn run<'s>(&self, scratch: &'s mut SolveScratch, steps: usize) -> (&'s [f64], &'s [f64]) {
        let start = self.first_failure_step(steps);
        fgcs_runtime::counter_add!("core.solver.fast_runs", 1);
        fgcs_runtime::counter_add!("core.solver.fast_steps", (steps + 1 - start) as u64);
        let view = self.params.solver_kernel();
        let (f1, f2) = scratch.planes(steps, start);
        let mut s1 = Source::new(view.trans_events(0), view.direct_events(0));
        let mut s2 = Source::new(view.trans_events(1), view.direct_events(1));
        for m0 in (start..=steps).step_by(BLOCK) {
            let sums1 = s1.block_sums(f2, m0, start);
            let sums2 = s2.block_sums(f1, m0, start);
            for (j, (&b1, &b2)) in sums1.iter().zip(&sums2).enumerate().take(steps + 1 - m0) {
                let m = m0 + j;
                // Both sums are taken before either slot m is written.
                let g1 = s1.step(f2, m, b1);
                let g2 = s2.step(f1, m, b2);
                f1[BLOCK + m] = g1.clamp(0.0, 1.0);
                f2[BLOCK + m] = g2.clamp(0.0, 1.0);
            }
        }
        (&f1[BLOCK..], &f2[BLOCK..])
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
    fn counted_steps_start_at_the_first_failure_mass() {
        // Operational for 300 samples, then S3: the only failure mass sits
        // at holding time 300 from S1.
        let mut day = vec![S1; 300];
        day.extend([S3; 20]);
        let windows: Vec<&[State]> = vec![&day];
        let late = SmpParams::estimate(&windows, 6, 319);
        let fast = FastSolver::new(&late);
        let start = fast.first_failure_step(319);
        assert_eq!(start, 300);
        assert_eq!(319 + 1 - start, 20, "steps solved to horizon 319");
        // A horizon before the mass solves nothing.
        assert_eq!(fast.first_failure_step(120), 121);
        let mut scratch = SolveScratch::new();
        let (f1, _) = fast.run(&mut scratch, 319);
        assert!(f1[..start].iter().all(|&f| f == 0.0));
        assert!(f1[start] > 0.0, "the failure stream starts at L");
        // No failure mass at all: no step runs and TR is exactly 1.
        let mut quiet = vec![S1; 150];
        quiet.extend([S2; 150]);
        let windows: Vec<&[State]> = vec![&quiet];
        let none = SmpParams::estimate(&windows, 6, 299);
        let fast = FastSolver::new(&none);
        assert_eq!(fast.first_failure_step(299), 300, "0 steps solved");
        assert_eq!(fast.temporal_reliability(S1, 299).unwrap(), 1.0);
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
