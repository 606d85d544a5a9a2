//! First-order Markov-chain ablation of the SMP predictor.
//!
//! The paper argues that availability prediction must capture "the dynamic
//! structure of load variations" — in SMP terms, that the next transition
//! depends on *how long* the process has stayed in its current state, not
//! just on the state itself. This module implements the memoryless
//! alternative: a discrete-time Markov chain over the same five states,
//! with the one-step transition matrix estimated from consecutive samples
//! of the same history windows. Holding times are then implicitly
//! geometric.
//!
//! Comparing this chain's temporal reliability against the SMP's (see the
//! `fig7_comparison` binary's `MARKOV` column) quantifies what the
//! semi-Markov holding-time distributions buy.

use crate::error::CoreError;
use crate::state::State;

/// A first-order Markov chain over the five availability states, with the
/// failure states made absorbing (as in the SMP's TR computation).
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovChain {
    /// Row-stochastic 5×5 one-step matrix (rows S3–S5 are absorbing).
    p: [[f64; 5]; 5],
    step_secs: u32,
}

impl MarkovChain {
    /// Estimates the one-step transition matrix from history windows
    /// (sequences of states at the monitoring period).
    ///
    /// Rows without any observation become absorbing self-loops; the three
    /// failure rows are forced absorbing regardless of what the logs show
    /// (a failure is unrecoverable *for the guest*).
    #[must_use]
    pub fn estimate(windows: &[&[State]], step_secs: u32) -> MarkovChain {
        let mut counts = [[0u64; 5]; 5];
        for w in windows {
            for pair in w.windows(2) {
                counts[pair[0].index()][pair[1].index()] += 1;
            }
        }
        let mut p = [[0.0_f64; 5]; 5];
        for i in 0..5 {
            let failure = State::from_index(i).is_failure();
            let total: u64 = counts[i].iter().sum();
            if failure || total == 0 {
                p[i][i] = 1.0;
                continue;
            }
            for j in 0..5 {
                p[i][j] = counts[i][j] as f64 / total as f64;
            }
        }
        MarkovChain { p, step_secs }
    }

    /// The one-step transition probability.
    #[must_use]
    pub fn transition(&self, from: State, to: State) -> f64 {
        self.p[from.index()][to.index()]
    }

    /// The monitoring period the chain was estimated at.
    #[must_use]
    pub fn step_secs(&self) -> u32 {
        self.step_secs
    }

    /// Temporal reliability: the probability of not being absorbed in
    /// S3/S4/S5 within `steps` one-step transitions, starting from `init`.
    pub fn temporal_reliability(&self, init: State, steps: usize) -> Result<f64, CoreError> {
        if init.is_failure() {
            return Err(CoreError::FailureInitialState(init));
        }
        // Propagate the distribution over {S1, S2, absorbed}.
        let mut dist = [0.0_f64; 5];
        dist[init.index()] = 1.0;
        for _ in 0..steps {
            let mut next = [0.0_f64; 5];
            for (i, &mass) in dist.iter().enumerate() {
                if mass == 0.0 {
                    continue;
                }
                for (n, pij) in next.iter_mut().zip(&self.p[i]) {
                    *n += mass * pij;
                }
            }
            dist = next;
        }
        let fail: f64 = State::FAILURE.iter().map(|s| dist[s.index()]).sum();
        Ok((1.0 - fail).clamp(0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use State::*;

    #[test]
    fn rows_are_stochastic() {
        let day: Vec<State> = (0..100)
            .map(|i| match i % 10 {
                0..=5 => S1,
                6..=8 => S2,
                _ => S3,
            })
            .collect();
        let windows: Vec<&[State]> = vec![&day];
        let chain = MarkovChain::estimate(&windows, 6);
        for i in 0..5 {
            let total: f64 = (0..5).map(|j| chain.p[i][j]).sum();
            assert!((total - 1.0).abs() < 1e-12, "row {i} sums to {total}");
        }
    }

    #[test]
    fn failure_rows_are_absorbing_even_if_logs_recover() {
        // The log shows S3 -> S1 recoveries, but the chain must keep S3
        // absorbing for TR purposes.
        let day = vec![S1, S3, S1, S3, S1];
        let windows: Vec<&[State]> = vec![&day];
        let chain = MarkovChain::estimate(&windows, 6);
        assert_eq!(chain.transition(S3, S3), 1.0);
        assert_eq!(chain.transition(S3, S1), 0.0);
    }

    #[test]
    fn quiet_history_gives_unit_reliability() {
        let day = vec![S1; 50];
        let windows: Vec<&[State]> = vec![&day];
        let chain = MarkovChain::estimate(&windows, 6);
        assert_eq!(chain.temporal_reliability(S1, 100).unwrap(), 1.0);
    }

    #[test]
    fn reliability_decays_geometrically() {
        // S1 -> S3 with per-step probability 0.1.
        let mut counts_day = Vec::new();
        for _ in 0..9 {
            counts_day.push(S1);
        }
        counts_day.push(S3);
        // Build a long sequence with that empirical rate: 9 S1->S1, 1 S1->S3.
        let windows: Vec<&[State]> = vec![&counts_day];
        let chain = MarkovChain::estimate(&windows, 6);
        let tr1 = chain.temporal_reliability(S1, 1).unwrap();
        let tr2 = chain.temporal_reliability(S1, 2).unwrap();
        assert!((tr1 - 8.0 / 9.0).abs() < 1e-12, "tr1 {tr1}");
        assert!((tr2 - tr1 * tr1).abs() < 1e-9, "geometric decay violated");
    }

    #[test]
    fn rejects_failure_init() {
        let chain = MarkovChain::estimate(&[], 6);
        assert!(chain.temporal_reliability(S5, 10).is_err());
    }

    #[test]
    fn empty_history_is_all_absorbing_selfloops() {
        let chain = MarkovChain::estimate(&[], 6);
        for s in State::ALL {
            assert_eq!(chain.transition(s, s), 1.0);
        }
        assert_eq!(chain.temporal_reliability(S1, 10).unwrap(), 1.0);
    }

    #[test]
    fn markov_misjudges_nongeometric_holding_times() {
        // Deterministic holding: S1 for exactly 10 steps, then S3. The SMP
        // captures "failure exactly at 10"; the Markov chain smears it
        // geometrically, predicting failure mass before step 10.
        use crate::smp::params::SmpParams;
        use crate::smp::solver::SparseSolver;
        let day: Vec<State> = (0..11).map(|i| if i < 10 { S1 } else { S3 }).collect();
        let windows: Vec<&[State]> = vec![&day; 5];
        let chain = MarkovChain::estimate(&windows, 6);
        let params = SmpParams::estimate(&windows, 6, 10);
        let smp = SparseSolver::new(&params);

        // At step 5 the true survival is 1.0; SMP knows it, Markov does not.
        let smp_tr5 = smp.temporal_reliability(S1, 5).unwrap();
        let mk_tr5 = chain.temporal_reliability(S1, 5).unwrap();
        assert_eq!(smp_tr5, 1.0);
        assert!(mk_tr5 < 0.75, "markov should lose mass early: {mk_tr5}");
    }
}
