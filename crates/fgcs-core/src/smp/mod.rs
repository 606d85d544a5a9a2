//! The discrete-time semi-Markov process (SMP) model of paper §4.
//!
//! * [`params`] — estimation of the SMP parameters (the transition matrix
//!   `Q` and holding-time mass functions `H`, stored jointly as the
//!   semi-Markov kernel `q_{i,k}(l) = Q_i(k) · H_{i,k}(l)`, kept as its
//!   sparse nonzero events) from history logs,
//! * [`solver`] — the sparse recursion of paper Eq. 3, which computes the
//!   six interval transition probabilities `P_{1,j}`, `P_{2,j}`
//!   (`j ∈ {3,4,5}`) needed for temporal reliability: the one paper-order
//!   recursion, kept as the bitwise oracle,
//! * [`dense`] — a general 5-state interval-transition solver used to
//!   cross-validate the sparse one and as the ablation baseline,
//! * [`incremental`] — the O(1)-per-sample online estimator backing the
//!   sharded serving registry, bitwise-verified against the full-scan
//!   [`params`] oracle,
//! * [`fast`] — the production solver: SoA interval streams in a reusable
//!   [`fast::SolveScratch`] arena, cursor-summed direct-failure terms, and
//!   an error-bounded (≤ 1e-12 unit-scale) contract against the
//!   paper-order oracle.
//!
//! Both [`SparseSolver`] and [`FastSolver`] answer one horizon
//! (`temporal_reliability`) or, from one run, the whole `TR(m)` curve
//! (`tr_curve`, see [`crate::batch::TrCurve`]).

pub mod dense;
pub mod fast;
pub mod incremental;
pub mod markov;
pub mod params;
pub mod solver;

pub use dense::DenseSolver;
pub use fast::{with_thread_scratch, FastSolver, SolveScratch};
pub use incremental::IncrementalEstimator;
pub use markov::MarkovChain;
pub use params::{HoldingPmf, SmpParams, SojournAccumulator};
pub use solver::{IntervalProbs, SparseSolver};
