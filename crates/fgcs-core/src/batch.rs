//! Multi-horizon TR curves and the cluster-wide evaluation fan-out.
//!
//! The Eq.-3 recursion is *prefix-closed*: computing `P_{init,j}(M)`
//! necessarily computes `P_{init,j}(m)` for every `m ≤ M` along the way, in
//! the exact same floating-point operation order a standalone solve at `m`
//! would use. One `O(M²)` run therefore answers a whole sweep of `N`
//! horizons for the cost of the longest one, where the independent sweep
//! would pay `Σᵢ (i·M/N)² ≈ M²·N/3`.
//!
//! * [`TrCurve`] — the materialized `TR(m)` curve for both operational
//!   initial states, built by `tr_curve` on either solver; one curve
//!   answers any horizon ≤ M in O(1).
//!   [`SparseSolver::tr_curve`](crate::smp::SparseSolver::tr_curve) is
//!   bit-identical to standalone paper-order solves;
//!   [`FastSolver::tr_curve`](crate::smp::FastSolver::tr_curve) to
//!   standalone fast solves.
//! * [`evaluate_cluster`] — machine-level fan-out of train/test
//!   evaluations across [`fgcs_runtime::parallel`], with deterministic
//!   result ordering.

use crate::error::CoreError;
use crate::log::HistoryStore;
use crate::predictor::{evaluate_window, SmpPredictor, WindowEvaluation};
use crate::smp::solver::reliability_from_failure;
use crate::state::State;
use crate::window::{DayType, TimeWindow};

/// A materialized temporal-reliability curve: `TR(m)` for `m = 0..=M` from
/// both operational initial states, answering any horizon within the run
/// in O(1).
#[derive(Debug, Clone, PartialEq)]
pub struct TrCurve {
    step_secs: u32,
    s1: Vec<f64>,
    s2: Vec<f64>,
}

impl TrCurve {
    /// Builds the curve from a solver run's failure sums,
    /// `failures_at(m) = [F_S1(m), F_S2(m)]` for `m = 0..=steps`, applying
    /// paper Eq. 2 at every step through the same function the scalar
    /// solves use, so curve values are bit-identical to standalone solves.
    pub(crate) fn from_failures(
        step_secs: u32,
        steps: usize,
        failures_at: impl Fn(usize) -> [f64; 2],
    ) -> TrCurve {
        let (s1, s2) = (0..=steps)
            .map(|m| {
                let [f1, f2] = failures_at(m);
                (reliability_from_failure(f1), reliability_from_failure(f2))
            })
            .unzip();
        TrCurve { step_secs, s1, s2 }
    }

    /// The discretisation step the curve was computed at.
    #[must_use]
    pub fn step_secs(&self) -> u32 {
        self.step_secs
    }

    /// The longest horizon (in steps) the curve answers.
    #[must_use]
    pub fn horizon_steps(&self) -> usize {
        self.s1.len().saturating_sub(1)
    }

    /// Temporal reliability at `steps` from the given initial state.
    pub fn tr(&self, init: State, steps: usize) -> Result<f64, CoreError> {
        if init.is_failure() {
            return Err(CoreError::FailureInitialState(init));
        }
        if steps > self.horizon_steps() {
            return Err(CoreError::HorizonTooLong {
                requested: steps,
                available: self.horizon_steps(),
            });
        }
        Ok(match init {
            State::S1 => self.s1[steps],
            _ => self.s2[steps],
        })
    }

    /// The whole `TR(m)` curve for one initial state.
    pub fn curve(&self, init: State) -> Result<&[f64], CoreError> {
        if init.is_failure() {
            return Err(CoreError::FailureInitialState(init));
        }
        Ok(match init {
            State::S1 => &self.s1,
            _ => &self.s2,
        })
    }
}

/// One machine's train/test evaluation in a cluster-wide sweep.
#[derive(Debug, Clone, Copy)]
pub struct EvalQuery<'a> {
    /// Training history (the statistics source).
    pub train: &'a HistoryStore,
    /// Test history (the empirical ground truth).
    pub test: &'a HistoryStore,
}

/// Runs [`evaluate_window`] for every machine in parallel, in query order
/// — the fan-out the figure sweeps (Fig. 5/7) use per (window, day-type)
/// cell.
pub fn evaluate_cluster(
    predictor: &SmpPredictor,
    queries: &[EvalQuery<'_>],
    day_type: DayType,
    window: TimeWindow,
) -> Vec<Result<WindowEvaluation, CoreError>> {
    fgcs_runtime::counter_add!("core.batch.cluster_sweeps", 1);
    fgcs_runtime::histogram_record!("core.batch.sweep_size", queries.len() as u64);
    fgcs_runtime::parallel::par_map(queries, |q| {
        evaluate_window(predictor, q.train, q.test, day_type, window)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smp::{SmpParams, SparseSolver};
    use State::*;

    /// A kernel with S1 <-> S2 churn and failure leaks at several holding
    /// times — enough structure that every curve is nontrivial.
    fn churn_kernel(horizon: usize) -> SmpParams {
        let mut kernel: [[Vec<f64>; 4]; 2] = Default::default();
        for row in &mut kernel {
            for col in row.iter_mut() {
                *col = vec![0.0; horizon + 1];
            }
        }
        kernel[0][0][2] = 0.4; // S1 -> S2 at 2
        kernel[0][0][7] = 0.1; // S1 -> S2 at 7
        kernel[0][1][4] = 0.08; // S1 -> S3 at 4
        kernel[0][2][9] = 0.04; // S1 -> S4 at 9
        kernel[0][3][6] = 0.03; // S1 -> S5 at 6
        kernel[1][0][3] = 0.5; // S2 -> S1 at 3
        kernel[1][0][11] = 0.1; // S2 -> S1 at 11
        kernel[1][1][5] = 0.1; // S2 -> S3 at 5
        kernel[1][3][8] = 0.05; // S2 -> S5 at 8
        SmpParams::from_kernel(6, kernel)
    }

    #[test]
    fn batched_curve_is_bit_identical_to_standalone_solves() {
        let params = churn_kernel(120);
        let paper = SparseSolver::new(&params);
        let batch = paper.tr_curve(120).unwrap();
        for init in [S1, S2] {
            for m in 0..=120usize {
                let batched = batch.tr(init, m).unwrap();
                let standalone = paper.temporal_reliability(init, m).unwrap();
                assert_eq!(
                    batched.to_bits(),
                    standalone.to_bits(),
                    "init {init} m {m}: batched {batched} vs standalone {standalone}"
                );
            }
        }
    }

    #[test]
    fn tr_curve_error_paths() {
        let params = churn_kernel(20);
        let solver = SparseSolver::new(&params);
        assert!(matches!(
            solver.tr_curve(21),
            Err(CoreError::HorizonTooLong {
                requested: 21,
                available: 20
            })
        ));
        let curve = solver.tr_curve(20).unwrap();
        assert!(matches!(
            curve.tr(S3, 5),
            Err(CoreError::FailureInitialState(S3))
        ));
        assert!(matches!(
            curve.tr(S1, 21),
            Err(CoreError::HorizonTooLong { .. })
        ));
        assert!(curve.curve(S4).is_err());
        assert_eq!(curve.horizon_steps(), 20);
        assert_eq!(curve.step_secs(), 6);
    }

    #[test]
    fn tr_curve_starts_at_one_and_is_monotone() {
        let params = churn_kernel(150);
        let curve = SparseSolver::new(&params).tr_curve(150).unwrap();
        for init in [S1, S2] {
            let c = curve.curve(init).unwrap();
            assert_eq!(c[0], 1.0);
            for w in c.windows(2) {
                assert!(w[1] <= w[0] + 1e-12, "TR increased: {} -> {}", w[0], w[1]);
            }
        }
    }
}
