//! The sparse interval-transition solver of paper Eq. 3 (§5.3).
//!
//! Exploiting the kernel's sparsity, only six interval transition
//! probabilities are needed for temporal reliability: `P_{1,j}(m)` and
//! `P_{2,j}(m)` for `j ∈ {S3, S4, S5}`. Since the failure states are
//! absorbing (`P_{j,j}(m) = 1`), the recursion is
//!
//! ```text
//! P_{1,j}(m) = Σ_{l=1..m} [ q_{1,2}(l) · P_{2,j}(m-l) + q_{1,j}(l) ]
//! P_{2,j}(m) = Σ_{l=1..m} [ q_{2,1}(l) · P_{1,j}(m-l) + q_{2,j}(l) ]
//! ```
//!
//! computed iteratively for `m = 1..T/d` in `O((T/d)²)` — matching the
//! superlinear computation-time growth the paper measures in Figure 4.
//! Temporal reliability is then `TR = 1 - Σ_j P_{init,j}(T/d)` (Eq. 2).

use crate::batch::TrCurve;
use crate::error::CoreError;
use crate::state::State;

use super::params::SmpParams;

/// The six per-step probability curves `(P_{1,j}(m), P_{2,j}(m))`,
/// `j ∈ {S3, S4, S5}`, produced by one run of the recursion.
pub(crate) type SixCurves = ([Vec<f64>; 3], [Vec<f64>; 3]);

/// The six interval transition probabilities at the requested horizon:
/// `p1[j]` = `P_{S1,S(3+j)}`, `p2[j]` = `P_{S2,S(3+j)}` for `j ∈ {0,1,2}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalProbs {
    /// `P_{1,3}, P_{1,4}, P_{1,5}` at the horizon.
    pub p1: [f64; 3],
    /// `P_{2,3}, P_{2,4}, P_{2,5}` at the horizon.
    pub p2: [f64; 3],
}

impl IntervalProbs {
    /// Probability of hitting *any* failure state from the given initial
    /// state within the horizon.
    ///
    /// In debug builds, each curve value is asserted to lie in `[0, 1]`
    /// before the final clamp: a NaN or negative entry means the kernel
    /// itself was malformed, and silently clamping it would launder the
    /// bug into a plausible-looking probability.
    ///
    /// # Panics
    /// Panics for failure initial states (the caller validates these).
    #[must_use]
    pub fn failure_probability(&self, init: State) -> f64 {
        let row = match init {
            State::S1 => &self.p1,
            State::S2 => &self.p2,
            s => panic!("failure_probability undefined for failure state {s}"),
        };
        for (j, &p) in row.iter().enumerate() {
            debug_assert!(
                (0.0..=1.0).contains(&p),
                "P_{{{init},S{}}} out of [0,1]: {p} (NaN or unnormalised kernel?)",
                j + 3
            );
        }
        row.iter().sum::<f64>().clamp(0.0, 1.0)
    }

    /// `[F_S1, F_S2]`: [`Self::failure_probability`] from each operational
    /// initial state.
    #[must_use]
    pub(crate) fn failure_probabilities(&self) -> [f64; 2] {
        [State::S1, State::S2].map(|init| self.failure_probability(init))
    }

    /// Paper Eq. 2, `TR = 1 − Σ_j P_{init,j}`, clamped into `[0, 1]`,
    /// through the same function every solver's scalar solves, memo fills
    /// and curves use, so they agree bit for bit.
    ///
    /// # Panics
    /// Panics for failure initial states (the caller validates these).
    #[must_use]
    pub fn temporal_reliability(&self, init: State) -> f64 {
        reliability_from_failure(self.failure_probability(init))
    }
}

/// Paper Eq. 2, `TR = 1 − F`, for the probability `F = Σ_j P_{init,j}` of
/// having entered any failure state within the horizon. `F` is clamped
/// into `[0, 1]`, so TR lies there too. This is the one place a temporal
/// reliability is derived from a solve, so scalar solves, memo fills and
/// curves agree bit for bit.
#[must_use]
pub(crate) fn reliability_from_failure(failure: f64) -> f64 {
    1.0 - failure.clamp(0.0, 1.0)
}

/// Solver over an estimated kernel.
#[derive(Debug, Clone, Copy)]
pub struct SparseSolver<'a> {
    params: &'a SmpParams,
}

impl<'a> SparseSolver<'a> {
    /// Wraps the estimated parameters.
    #[must_use]
    pub fn new(params: &'a SmpParams) -> SparseSolver<'a> {
        SparseSolver { params }
    }

    /// Runs the recursion up to `steps` and returns the full per-step curves
    /// of the six probabilities: `(p1[j][m], p2[j][m])`.
    fn run(&self, steps: usize) -> Result<SixCurves, CoreError> {
        if steps > self.params.horizon() {
            return Err(CoreError::HorizonTooLong {
                requested: steps,
                available: self.params.horizon(),
            });
        }
        fgcs_runtime::counter_add!("core.solver.sparse_runs", 1);
        fgcs_runtime::counter_add!("core.solver.sparse_steps", steps as u64);
        // The recursion below touches 3 targets × m inner terms per step m,
        // so one run costs 3·steps·(steps+1)/2 kernel multiply-adds.
        fgcs_runtime::counter_add!(
            "core.solver.sparse_iterations",
            3 * (steps as u64) * (steps as u64 + 1) / 2
        );
        // Dense kernel rows: from S1 with targets [S2, S3, S4, S5], from
        // S2 with targets [S1, S3, S4, S5].
        let q1 = self.params.dense_row(0);
        let q2 = self.params.dense_row(1);

        let mut p1: [Vec<f64>; 3] = [
            vec![0.0; steps + 1],
            vec![0.0; steps + 1],
            vec![0.0; steps + 1],
        ];
        let mut p2: [Vec<f64>; 3] = [
            vec![0.0; steps + 1],
            vec![0.0; steps + 1],
            vec![0.0; steps + 1],
        ];

        for m in 1..=steps {
            for j in 0..3 {
                // Target index j+1 is the failure state S(3+j) in the kernel
                // row layout [other, S3, S4, S5].
                let mut acc1 = 0.0;
                let mut acc2 = 0.0;
                for l in 1..=m {
                    acc1 += q1[0][l] * p2[j][m - l] + q1[j + 1][l];
                    acc2 += q2[0][l] * p1[j][m - l] + q2[j + 1][l];
                }
                p1[j][m] = acc1.clamp(0.0, 1.0);
                p2[j][m] = acc2.clamp(0.0, 1.0);
            }
        }
        Ok((p1, p2))
    }

    /// The six interval transition probabilities at horizon `steps`.
    pub fn interval_probabilities(&self, steps: usize) -> Result<IntervalProbs, CoreError> {
        Ok(probs_at(&self.run(steps)?, steps))
    }

    /// Temporal reliability `TR = 1 - Σ_j P_{init,j}(steps)` for an
    /// operational initial state.
    pub fn temporal_reliability(&self, init: State, steps: usize) -> Result<f64, CoreError> {
        if init.is_failure() {
            return Err(CoreError::FailureInitialState(init));
        }
        let probs = self.interval_probabilities(steps)?;
        // The per-state sums are clamped into [0,1]; any mass outside that
        // range is numerical drift of the recursion. Export it as the
        // solver's convergence residual.
        let raw: f64 = match init {
            State::S1 => probs.p1.iter().sum(),
            _ => probs.p2.iter().sum(),
        };
        fgcs_runtime::gauge_set!(
            "core.solver.sparse_last_residual",
            (raw - raw.clamp(0.0, 1.0)).abs()
        );
        Ok(probs.temporal_reliability(init))
    }

    /// The materialized [`TrCurve`]: `TR(m)` for `m = 0..=steps` from both
    /// operational initial states, from one run of the recursion (an
    /// extension beyond the paper: schedulers compare horizons without
    /// re-running it). The run to `steps` computes every `P_{init,j}(m)`
    /// exactly as a run to `m` would, so each value is bit-identical to
    /// [`Self::temporal_reliability`] at `m`.
    pub fn tr_curve(&self, steps: usize) -> Result<TrCurve, CoreError> {
        let curves = self.run(steps)?;
        Ok(TrCurve::from_failures(
            self.params.step_secs(),
            steps,
            |m| probs_at(&curves, m).failure_probabilities(),
        ))
    }
}

/// The six probabilities at horizon `m` of one run's planar curves.
fn probs_at((p1, p2): &SixCurves, m: usize) -> IntervalProbs {
    IntervalProbs {
        p1: [p1[0][m], p1[1][m], p1[2][m]],
        p2: [p2[0][m], p2[1][m], p2[2][m]],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use State::*;

    /// A kernel with a single deterministic transition S1 -> S3 at holding 3.
    fn kernel_one_shot(horizon: usize, prob: f64) -> SmpParams {
        let mut kernel: [[Vec<f64>; 4]; 2] = Default::default();
        for row in &mut kernel {
            for col in row.iter_mut() {
                *col = vec![0.0; horizon + 1];
            }
        }
        kernel[0][1][3] = prob; // q_{S1,S3}(3)
        SmpParams::from_kernel(6, kernel)
    }

    #[test]
    fn empty_kernel_gives_perfect_reliability() {
        let p = SmpParams::estimate(&[], 6, 50);
        let s = SparseSolver::new(&p);
        assert_eq!(s.temporal_reliability(S1, 50).unwrap(), 1.0);
        assert_eq!(s.temporal_reliability(S2, 50).unwrap(), 1.0);
    }

    #[test]
    fn one_shot_failure_shows_up_after_holding_time() {
        let p = kernel_one_shot(10, 0.4);
        let s = SparseSolver::new(&p);
        let curve = s.tr_curve(10).unwrap();
        let curve = curve.curve(S1).unwrap();
        assert_eq!(curve[0], 1.0);
        assert_eq!(curve[2], 1.0); // before the holding time elapses
        assert!((curve[3] - 0.6).abs() < 1e-12);
        assert!((curve[10] - 0.6).abs() < 1e-12); // no further mass
    }

    #[test]
    fn failure_init_is_rejected() {
        let p = kernel_one_shot(10, 0.4);
        let s = SparseSolver::new(&p);
        assert!(matches!(
            s.temporal_reliability(S3, 5),
            Err(CoreError::FailureInitialState(S3))
        ));
    }

    #[test]
    fn horizon_overflow_is_rejected() {
        let p = kernel_one_shot(10, 0.4);
        let s = SparseSolver::new(&p);
        assert!(matches!(
            s.temporal_reliability(S1, 11),
            Err(CoreError::HorizonTooLong {
                requested: 11,
                available: 10
            })
        ));
    }

    #[test]
    fn reliability_is_monotone_non_increasing() {
        // Richer kernel: S1 <-> S2 churn plus failure leaks.
        let horizon = 40;
        let mut kernel: [[Vec<f64>; 4]; 2] = Default::default();
        for row in &mut kernel {
            for col in row.iter_mut() {
                *col = vec![0.0; horizon + 1];
            }
        }
        kernel[0][0][2] = 0.5; // S1 -> S2 at 2
        kernel[0][1][4] = 0.1; // S1 -> S3 at 4
        kernel[0][3][6] = 0.05; // S1 -> S5 at 6
        kernel[1][0][3] = 0.6; // S2 -> S1 at 3
        kernel[1][2][5] = 0.2; // S2 -> S4 at 5
        let p = SmpParams::from_kernel(6, kernel);
        let s = SparseSolver::new(&p);
        let curves = s.tr_curve(horizon).unwrap();
        for init in [S1, S2] {
            let curve = curves.curve(init).unwrap();
            for w in curve.windows(2) {
                assert!(w[1] <= w[0] + 1e-12, "TR increased: {} -> {}", w[0], w[1]);
            }
            assert!(curve.iter().all(|tr| (0.0..=1.0).contains(tr)));
        }
    }

    #[test]
    fn two_hop_failure_path_composes() {
        // S1 -> S2 at 1 (prob 1), S2 -> S3 at 1 (prob 1): failure by m = 2.
        let horizon = 5;
        let mut kernel: [[Vec<f64>; 4]; 2] = Default::default();
        for row in &mut kernel {
            for col in row.iter_mut() {
                *col = vec![0.0; horizon + 1];
            }
        }
        kernel[0][0][1] = 1.0;
        kernel[1][1][1] = 1.0;
        let p = SmpParams::from_kernel(6, kernel);
        let s = SparseSolver::new(&p);
        let curve = s.tr_curve(5).unwrap();
        let curve = curve.curve(S1).unwrap();
        assert_eq!(curve[0], 1.0);
        assert_eq!(curve[1], 1.0); // at m=1 we are in S2, still operational
        assert!((curve[2] - 0.0).abs() < 1e-12);
    }

    #[test]
    fn interval_probs_split_by_failure_state() {
        let horizon = 8;
        let mut kernel: [[Vec<f64>; 4]; 2] = Default::default();
        for row in &mut kernel {
            for col in row.iter_mut() {
                *col = vec![0.0; horizon + 1];
            }
        }
        kernel[0][1][2] = 0.2; // S1 -> S3
        kernel[0][2][3] = 0.3; // S1 -> S4
        kernel[0][3][4] = 0.1; // S1 -> S5
        let p = SmpParams::from_kernel(6, kernel);
        let s = SparseSolver::new(&p);
        let probs = s.interval_probabilities(8).unwrap();
        assert!((probs.p1[0] - 0.2).abs() < 1e-12);
        assert!((probs.p1[1] - 0.3).abs() < 1e-12);
        assert!((probs.p1[2] - 0.1).abs() < 1e-12);
        assert_eq!(probs.p2, [0.0; 3]);
        assert!((probs.failure_probability(S1) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn zero_steps_reliability_is_one() {
        let p = kernel_one_shot(10, 1.0);
        let s = SparseSolver::new(&p);
        assert_eq!(s.temporal_reliability(S1, 0).unwrap(), 1.0);
    }
}
