//! Property-based tests over the core invariants, spanning crates.
//!
//! Runs on the in-tree seeded harness (`fgcs::runtime::check`): each case is
//! derived deterministically from the property name and case index, so a
//! failure report reproduces by re-running the same test binary.

use fgcs::core::smp::{DenseSolver, FastSolver, IntervalProbs, SmpParams, SparseSolver};
use fgcs::core::{AvailabilityModel, LoadSample, State, StateClassifier};
use fgcs::prelude::{DayType, SmpPredictor, TimeWindow, TraceConfig, TraceGenerator};
use fgcs::runtime::check::{check, ensure, Gen};

const CASES: u64 = 64;

/// A random sparse sub-probability kernel over a small horizon.
///
/// For each of the two source rows, draw up to six (target weight, holding
/// time) entries and normalise so the row sums to < 1.
fn random_kernel(g: &mut Gen, horizon: usize) -> SmpParams {
    random_kernel_entries(g, horizon, 6)
}

/// [`random_kernel`] with up to `max_entries` draws per source row.
fn random_kernel_entries(g: &mut Gen, horizon: usize, max_entries: usize) -> SmpParams {
    let mut kernel: [[Vec<f64>; 4]; 2] = Default::default();
    for r in &mut kernel {
        for c in r.iter_mut() {
            *c = vec![0.0; horizon + 1];
        }
    }
    for row in &mut kernel {
        let entries = g.usize_in(0, max_entries);
        let draws: Vec<(f64, usize)> = (0..entries)
            .map(|_| (g.prob(), g.usize_in(1, horizon + 1)))
            .collect();
        let total: f64 = draws.iter().map(|(w, _)| w).sum::<f64>() + 1.0;
        for (j, (w, l)) in draws.into_iter().enumerate() {
            row[j % 4][l] += w / total;
        }
    }
    SmpParams::from_kernel(6, kernel)
}

/// A random state-index sequence mapped into [`State`]s.
fn random_states(g: &mut Gen, max_index: usize, min_len: usize, max_len: usize) -> Vec<State> {
    let len = g.usize_in(min_len, max_len);
    g.vec_of(len, |g| State::from_index(g.usize_in(0, max_index)))
}

#[test]
fn tr_is_probability_and_monotone() {
    check("tr_is_probability_and_monotone", CASES, |g| {
        let params = random_kernel(g, 24);
        let curves = SparseSolver::new(&params).tr_curve(24).unwrap();
        for init in [State::S1, State::S2] {
            let curve = curves.curve(init).unwrap();
            ensure(curve[0] == 1.0, format!("curve starts at {}", curve[0]))?;
            for pair in curve.windows(2) {
                ensure(
                    pair[1] <= pair[0] + 1e-9,
                    format!("curve not monotone: {} -> {}", pair[0], pair[1]),
                )?;
                ensure(
                    (0.0..=1.0).contains(&pair[1]),
                    format!("TR out of range: {}", pair[1]),
                )?;
            }
        }
        Ok(())
    });
}

#[test]
fn interval_probability_curves_are_monotone_in_horizon() {
    // Eq. 3's P_{init,j}(m) is the probability of *ever* having entered
    // failure state j within m steps — a non-decreasing function of m.
    // One standalone solve per horizon gives the curves.
    check(
        "interval_probability_curves_are_monotone_in_horizon",
        CASES,
        |g| {
            let params = random_kernel(g, 24);
            let solver = SparseSolver::new(&params);
            let probs: Vec<IntervalProbs> = (0..=24)
                .map(|m| solver.interval_probabilities(m).unwrap())
                .collect();
            let rows = |of: fn(&IntervalProbs) -> [f64; 3]| -> [Vec<f64>; 3] {
                std::array::from_fn(|j| probs.iter().map(|p| of(p)[j]).collect())
            };
            let (p1, p2) = (rows(|p| p.p1), rows(|p| p.p2));
            for (init, rows) in [("S1", &p1), ("S2", &p2)] {
                for (j, row) in rows.iter().enumerate() {
                    ensure(row[0] == 0.0, format!("P_{{{init},S{}}}(0) != 0", j + 3))?;
                    for (m, pair) in row.windows(2).enumerate() {
                        ensure(
                            pair[1] + 1e-12 >= pair[0],
                            format!(
                                "P_{{{init},S{}}} decreases at m={}: {} -> {}",
                                j + 3,
                                m + 1,
                                pair[0],
                                pair[1]
                            ),
                        )?;
                        ensure(
                            (0.0..=1.0).contains(&pair[1]),
                            format!("P out of range: {}", pair[1]),
                        )?;
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn batched_tr_curve_matches_standalone_solves_bitwise() {
    check(
        "batched_tr_curve_matches_standalone_solves_bitwise",
        CASES,
        |g| {
            let params = random_kernel(g, 20);
            let solver = SparseSolver::new(&params);
            let curve = solver.tr_curve(20).unwrap();
            for init in [State::S1, State::S2] {
                for m in 0..=20usize {
                    let batched = curve.tr(init, m).unwrap();
                    let standalone = solver.temporal_reliability(init, m).unwrap();
                    ensure(
                        batched.to_bits() == standalone.to_bits(),
                        format!("m={m} init={init}: batched {batched} standalone {standalone}"),
                    )?;
                }
            }
            Ok(())
        },
    );
}

#[test]
fn sparse_equals_dense() {
    check("sparse_equals_dense", CASES, |g| {
        let params = random_kernel(g, 16);
        let sparse = SparseSolver::new(&params);
        let dense = DenseSolver::from_params(&params);
        for init in [State::S1, State::S2] {
            for steps in [1usize, 7, 16] {
                let a = sparse.temporal_reliability(init, steps).unwrap();
                let b = dense.temporal_reliability(init, steps).unwrap();
                ensure((a - b).abs() < 1e-9, format!("sparse {a} dense {b}"))?;
            }
        }
        Ok(())
    });
}

#[test]
fn dense_rows_are_distributions() {
    check("dense_rows_are_distributions", CASES, |g| {
        let params = random_kernel(g, 12);
        let dense = DenseSolver::from_params(&params);
        let mats = dense.interval_matrix(12).unwrap();
        for mat in &mats {
            for row in mat {
                let sum: f64 = row.iter().sum();
                ensure((sum - 1.0).abs() < 1e-9, format!("row sums to {sum}"))?;
                for &p in row {
                    ensure(
                        (0.0..=1.0 + 1e-12).contains(&p),
                        format!("entry out of range: {p}"),
                    )?;
                }
            }
        }
        Ok(())
    });
}

#[test]
fn estimated_q_rows_are_subprobabilities() {
    check("estimated_q_rows_are_subprobabilities", CASES, |g| {
        let seq = random_states(g, 5, 20, 200);
        let windows: Vec<&[State]> = vec![&seq];
        let horizon = seq.len() - 1;
        let params = SmpParams::estimate(&windows, 6, horizon);
        for from in [State::S1, State::S2] {
            let total: f64 = State::ALL.iter().map(|&to| params.q(from, to)).sum();
            ensure(total <= 1.0 + 1e-9, format!("row {from} sums to {total}"))?;
        }
        Ok(())
    });
}

#[test]
fn holding_pmfs_normalise() {
    check("holding_pmfs_normalise", CASES, |g| {
        let seq = random_states(g, 3, 30, 150);
        let windows: Vec<&[State]> = vec![&seq];
        let params = SmpParams::estimate(&windows, 6, seq.len() - 1);
        for from in [State::S1, State::S2] {
            for to in State::ALL {
                if let Some(pmf) = params.holding_pmf(from, to) {
                    let total: f64 = pmf.iter().sum();
                    ensure((total - 1.0).abs() < 1e-9, format!("pmf sums to {total}"))?;
                    ensure(pmf.iter().all(|p| p >= 0.0), "negative pmf entry")?;
                }
            }
        }
        Ok(())
    });
}

#[test]
fn fast_solver_stays_within_error_budget_of_paper_oracle() {
    // The production fast path relaxes bit-identity with the paper-order
    // recursion; its contract is a 1e-12 unit-scale relative error at
    // *every* horizon, from both operational initial states, over both
    // synthetic kernels and kernels estimated from state sequences.
    check("fast_solver_error_budget_random_kernel", CASES, |g| {
        let horizon = g.usize_in(1, 64);
        let params = random_kernel(g, horizon);
        fast_matches_oracle_everywhere(&params)
    });
    check("fast_solver_error_budget_estimated_kernel", CASES, |g| {
        let seq = random_states(g, 5, 20, 200);
        let windows: Vec<&[State]> = vec![&seq];
        let params = SmpParams::estimate(&windows, 6, seq.len() - 1);
        fast_matches_oracle_everywhere(&params)
    });
}

fn fast_matches_oracle_everywhere(params: &SmpParams) -> Result<(), String> {
    let fast_curves = FastSolver::new(params).tr_curve(params.horizon()).unwrap();
    let oracle_curves = SparseSolver::new(params)
        .tr_curve(params.horizon())
        .unwrap();
    for init in [State::S1, State::S2] {
        let fast_curve = fast_curves.curve(init).unwrap();
        let oracle_curve = oracle_curves.curve(init).unwrap();
        for (m, (f, o)) in fast_curve.iter().zip(oracle_curve).enumerate() {
            ensure(
                (f - o).abs() <= 1e-12 * o.abs().max(1.0),
                format!("init {init} horizon {m}: fast {f} vs oracle {o}"),
            )?;
        }
    }
    Ok(())
}

#[test]
fn fast_path_reads_only_the_lumped_failure_kernel() {
    // Eq. 2 reads only the failure sum, and the fast path solves for it
    // directly: a kernel and its failure-lumped twin must give the same
    // fast curve bit for bit, both within the error budget of the oracle.
    check("fast_path_lumped_twin_random_kernel", 2 * CASES, |g| {
        let horizon = g.usize_in(1, 64);
        fast_matches_lumped_twin(&random_kernel_entries(g, horizon, 12))
    });
    check("fast_path_lumped_twin_estimated_kernel", 2 * CASES, |g| {
        let seq = random_states(g, 5, 20, 200);
        let windows: Vec<&[State]> = vec![&seq];
        fast_matches_lumped_twin(&SmpParams::estimate(&windows, 6, seq.len() - 1))
    });
}

/// The kernel's failure-lumped twin: at each holding time, all of a
/// source's failure mass sits on S3 as `(q₃ + q₄) + q₅`, and the S4 and S5
/// rows are zero. The operational-transition rows are unchanged.
fn failure_lumped_twin(params: &SmpParams) -> SmpParams {
    let column = |from: State, to: State| -> Vec<f64> {
        (0..=params.horizon())
            .map(|l| params.kernel_at(from, to, l))
            .collect()
    };
    let row = |from: State, other: State| -> [Vec<f64>; 4] {
        let lumped = column(from, State::S3)
            .iter()
            .zip(column(from, State::S4))
            .zip(column(from, State::S5))
            .map(|((q3, q4), q5)| (q3 + q4) + q5)
            .collect();
        let zero = vec![0.0; params.horizon() + 1];
        [column(from, other), lumped, zero.clone(), zero]
    };
    let kernel = [row(State::S1, State::S2), row(State::S2, State::S1)];
    SmpParams::from_kernel(params.step_secs(), kernel)
}

fn fast_matches_lumped_twin(params: &SmpParams) -> Result<(), String> {
    let steps = params.horizon();
    let twin = failure_lumped_twin(params);
    let fast = FastSolver::new(params).tr_curve(steps).unwrap();
    let fast_twin = FastSolver::new(&twin).tr_curve(steps).unwrap();
    let oracle = SparseSolver::new(params).tr_curve(steps).unwrap();
    for init in [State::S1, State::S2] {
        let curves = [&fast, &fast_twin, &oracle].map(|c| c.curve(init).unwrap());
        for m in 0..=steps {
            let [f, t, o] = curves.map(|c| c[m]);
            ensure(
                f.to_bits() == t.to_bits(),
                format!("init {init} horizon {m}: fast {f} vs lumped twin {t}"),
            )?;
            for v in [f, t] {
                ensure(
                    (v - o).abs() <= 1e-12 * o.abs().max(1.0),
                    format!("init {init} horizon {m}: fast {v} vs oracle {o}"),
                )?;
            }
        }
    }
    Ok(())
}

/// The fast-vs-oracle contract at every horizon, plus the shape of a TR
/// curve: inside [0, 1] and non-increasing, for the fast path and the
/// oracle alike. One oracle run serves every check.
fn assert_numeric_edge(params: &SmpParams) {
    let steps = params.horizon();
    let fast = FastSolver::new(params).tr_curve(steps).unwrap();
    let oracle = SparseSolver::new(params).tr_curve(steps).unwrap();
    for init in [State::S1, State::S2] {
        let (f_curve, o_curve) = (fast.curve(init).unwrap(), oracle.curve(init).unwrap());
        assert_eq!(f_curve.len(), steps + 1);
        for (m, (f, o)) in f_curve.iter().zip(o_curve).enumerate() {
            assert!(
                (f - o).abs() <= 1e-12 * o.abs().max(1.0),
                "{init} at m = {m}: fast {f} vs oracle {o}"
            );
        }
        for curve in [f_curve, o_curve] {
            assert!(curve.iter().all(|tr| (0.0..=1.0).contains(tr)));
            for (m, pair) in curve.windows(2).enumerate() {
                assert!(
                    pair[1] <= pair[0],
                    "{init}: TR rises at m = {}: {} -> {}",
                    m + 1,
                    pair[0],
                    pair[1]
                );
            }
        }
    }
}

/// A kernel holding only the given `(source, target, holding, mass)`
/// entries, target index in `[other, S3, S4, S5]` order.
fn kernel_of(horizon: usize, entries: &[(usize, usize, usize, f64)]) -> SmpParams {
    let mut kernel: [[Vec<f64>; 4]; 2] = Default::default();
    for row in &mut kernel {
        for col in row.iter_mut() {
            *col = vec![0.0; horizon + 1];
        }
    }
    for &(i, k, l, v) in entries {
        kernel[i][k][l] = v;
    }
    SmpParams::from_kernel(6, kernel)
}

#[test]
fn numeric_edge_full_day_window_from_generated_days() {
    // A 24-h window at d = 6 s: the 14 400-step horizon, estimated from
    // three weeks of a generated lab machine.
    let model = AvailabilityModel::default();
    let history = TraceGenerator::new(TraceConfig::lab_machine(4))
        .generate_days(21)
        .to_history(&model)
        .unwrap();
    let window = TimeWindow::from_hours(0.0, 24.0);
    let params = SmpPredictor::new(model)
        .estimate_params(&history, DayType::Weekday, window)
        .unwrap();
    assert_eq!(params.horizon(), 14_400);
    assert!(params.sojourn_counts()[0] > 0);
    assert_numeric_edge(&params);
}

#[test]
fn numeric_edge_single_event_kernel() {
    for (i, k, l) in [(0, 1, 1), (1, 3, 9), (0, 0, 4), (1, 2, 16)] {
        assert_numeric_edge(&kernel_of(16, &[(i, k, l, 0.375)]));
    }
}

#[test]
fn numeric_edge_subnormal_masses() {
    let tiny: f64 = 1e-310;
    assert!(tiny > 0.0 && !tiny.is_normal());
    let params = kernel_of(
        40,
        &[
            (0, 0, 2, 0.5),
            (0, 1, 3, tiny),
            (1, 0, 5, tiny),
            (1, 3, 7, tiny),
        ],
    );
    // The kernel keeps the subnormal masses: they are nonzero.
    assert_eq!(params.kernel_at(State::S1, State::S3, 3), tiny);
    assert_eq!(params.kernel_at(State::S2, State::S1, 5), tiny);
    assert_eq!(params.q(State::S2, State::S5), tiny);
    let failures = FastSolver::new(&params).failure_probabilities(40).unwrap();
    assert!(failures.iter().all(|&f| f > 0.0));
    assert_numeric_edge(&params);
}

#[test]
fn numeric_edge_near_certain_failure() {
    let eps = 1e-15;
    let params = kernel_of(
        64,
        &[
            (0, 1, 1, 1.0 - eps),
            (0, 0, 1, eps / 2.0),
            (1, 2, 2, 1.0 - 2.0 * eps),
            (1, 0, 3, eps),
        ],
    );
    assert_numeric_edge(&params);
    let tr = FastSolver::new(&params)
        .temporal_reliability(State::S1, 64)
        .unwrap();
    assert!(tr < 1e-14, "TR {tr}");
}

/// The fast solver's block width: it sums the transition events with
/// holding time at least this a block of steps ahead and runs the nearer
/// ones per step. The kernels below put events on both sides of it.
const FAST_BLOCK: usize = 16;

/// `params` with every failure mass `q_{i,S3..S5}(l)` moved to holding time
/// `l + shift` (mass moved past the horizon is dropped). The operational
/// transitions stay as they are.
fn with_failures_moved(params: &SmpParams, shift: usize) -> SmpParams {
    let horizon = params.horizon();
    let row = |from: State, other: State| -> [Vec<f64>; 4] {
        [other, State::S3, State::S4, State::S5].map(|to| {
            (0..=horizon)
                .map(|l| {
                    if to == other {
                        params.kernel_at(from, to, l)
                    } else if l > shift {
                        params.kernel_at(from, to, l - shift)
                    } else {
                        0.0
                    }
                })
                .collect()
        })
    };
    let kernel = [row(State::S1, State::S2), row(State::S2, State::S1)];
    SmpParams::from_kernel(params.step_secs(), kernel)
}

/// The smallest holding time with failure mass from either source, if any.
fn first_failure_mass(params: &SmpParams) -> Option<usize> {
    (1..=params.horizon()).find(|&l| {
        [State::S1, State::S2].iter().any(|&from| {
            [State::S3, State::S4, State::S5]
                .iter()
                .any(|&to| params.kernel_at(from, to, l) != 0.0)
        })
    })
}

/// A random kernel over `horizon` shaped for the fast solver's blocks: per
/// source, up to 40 operational transitions (about a third of them below
/// [`FAST_BLOCK`], the rest anywhere in the horizon) and, unless
/// `failure_shift` is `None`, up to 8 failure entries moved that many
/// holding times later (those moved past the horizon are dropped). Each
/// row sums to less than 1. Transitions may sit at holding time 0, which
/// Eq. 3 never reads (it sums `l ≥ 1`).
fn random_block_kernel(g: &mut Gen, horizon: usize, failure_shift: Option<usize>) -> SmpParams {
    let mut kernel: [[Vec<f64>; 4]; 2] = Default::default();
    for row in &mut kernel {
        for col in row.iter_mut() {
            *col = vec![0.0; horizon + 1];
        }
        let transitions = g.usize_in(0, 41);
        let failures = failure_shift.map_or(0, |_| g.usize_in(0, 9));
        let draws: Vec<(usize, usize, f64)> = (0..transitions + failures)
            .map(|i| {
                let near = g.bool_with(1.0 / 3.0);
                let top = if near {
                    FAST_BLOCK.min(horizon + 1)
                } else {
                    horizon + 1
                };
                if i < transitions {
                    (0, g.usize_in(0, top), g.prob())
                } else {
                    let l = g.usize_in(1, top) + failure_shift.unwrap_or(0);
                    (g.usize_in(1, 4), l, g.prob())
                }
            })
            .collect();
        let total: f64 = draws.iter().map(|&(_, _, w)| w).sum::<f64>() + 1.0;
        for (target, l, w) in draws {
            if l <= horizon {
                row[target][l] += w / total;
            }
        }
    }
    SmpParams::from_kernel(6, kernel)
}

/// A random state sequence of `len` steps made of runs of up to `max_run`
/// steps, so estimated sojourns reach past [`FAST_BLOCK`]. Failure runs
/// (S3–S5) come with probability `failure_share`.
fn random_runs(g: &mut Gen, len: usize, max_run: usize, failure_share: f64) -> Vec<State> {
    let mut seq = Vec::with_capacity(len);
    while seq.len() < len {
        let state = if g.bool_with(failure_share) {
            State::from_index(g.usize_in(2, 5))
        } else {
            State::from_index(g.usize_in(0, 2))
        };
        let run = g.usize_in(1, max_run + 1).min(len - seq.len());
        seq.resize(seq.len() + run, state);
    }
    seq
}

/// A kernel estimated from four random run sequences of `horizon + 1`
/// steps each.
fn estimated_run_kernel(g: &mut Gen, horizon: usize, failure_share: f64) -> SmpParams {
    let seqs: Vec<Vec<State>> = (0..4)
        .map(|_| random_runs(g, horizon + 1, 60, failure_share))
        .collect();
    let windows: Vec<&[State]> = seqs.iter().map(Vec::as_slice).collect();
    SmpParams::estimate(&windows, 6, horizon)
}

/// Fast ≈ oracle within the 1e-12 budget at every horizon from both
/// inits; TR bit-equal to 1.0 at every horizon before the first failure
/// mass; and scalar solves at a few horizons bit-equal to the curve (they
/// reuse the thread's scratch after solves of other kernels and horizons).
fn fast_starts_at_first_failure_mass(params: &SmpParams) -> Result<(), String> {
    let steps = params.horizon();
    let first = first_failure_mass(params).unwrap_or(steps + 1);
    let fast = FastSolver::new(params);
    let fast_curves = fast.tr_curve(steps).unwrap();
    let oracle_curves = SparseSolver::new(params).tr_curve(steps).unwrap();
    for init in [State::S1, State::S2] {
        let fast_curve = fast_curves.curve(init).unwrap();
        let oracle_curve = oracle_curves.curve(init).unwrap();
        for (m, (&f, &o)) in fast_curve.iter().zip(oracle_curve).enumerate() {
            ensure(
                (f - o).abs() <= 1e-12 * o.abs().max(1.0),
                format!("init {init} horizon {m} (first failure {first}): fast {f} vs oracle {o}"),
            )?;
            ensure(
                m >= first || f.to_bits() == 1.0f64.to_bits(),
                format!("init {init} horizon {m} before first failure {first}: TR {f}"),
            )?;
        }
        for m in [first.saturating_sub(1), first, steps / 2, steps] {
            let m = m.min(steps);
            let scalar = fast.temporal_reliability(init, m).unwrap();
            ensure(
                scalar.to_bits() == fast_curve[m].to_bits(),
                format!(
                    "init {init} horizon {m}: scalar {scalar} vs curve {}",
                    fast_curve[m]
                ),
            )?;
        }
    }
    Ok(())
}

#[test]
fn fast_solver_starts_at_the_first_failure_mass() {
    // Horizons up to 400 steps span many blocks. Half the cases draw the
    // first failure mass within the first block, where transition events
    // enter mid-block; the rest draw it anywhere in the horizon.
    let late = |g: &mut Gen, horizon: usize| {
        let top = if g.bool_with(0.5) {
            FAST_BLOCK
        } else {
            horizon
        };
        g.usize_in(0, top)
    };
    check("fast_first_failure_mass_random_kernel", CASES, |g| {
        let horizon = g.usize_in(1, 401);
        let shift = late(g, horizon);
        fast_starts_at_first_failure_mass(&random_block_kernel(g, horizon, Some(shift)))
    });
    check("fast_first_failure_mass_estimated_kernel", CASES, |g| {
        let horizon = g.usize_in(FAST_BLOCK, 401);
        let params = estimated_run_kernel(g, horizon, 0.2);
        let shift = late(g, horizon);
        fast_starts_at_first_failure_mass(&with_failures_moved(&params, shift))
    });
}

/// TR bit-equal to 1.0 at every horizon from both inits, on the curve and
/// on the scalar solve at the full horizon.
fn unit_reliability_everywhere(params: &SmpParams) -> Result<(), String> {
    ensure(
        first_failure_mass(params).is_none(),
        "kernel has failure mass",
    )?;
    let steps = params.horizon();
    let fast = FastSolver::new(params);
    let curves = fast.tr_curve(steps).unwrap();
    for init in [State::S1, State::S2] {
        for (m, &tr) in curves.curve(init).unwrap().iter().enumerate() {
            ensure(
                tr.to_bits() == 1.0f64.to_bits(),
                format!("init {init} horizon {m}: TR {tr}"),
            )?;
        }
        let tr = fast.temporal_reliability(init, steps).unwrap();
        ensure(
            tr.to_bits() == 1.0f64.to_bits(),
            format!("init {init} scalar at {steps}: TR {tr}"),
        )?;
    }
    Ok(())
}

#[test]
fn fast_solver_gives_unit_reliability_without_failure_mass() {
    check("fast_no_failure_mass_random_kernel", CASES, |g| {
        let horizon = g.usize_in(1, 401);
        unit_reliability_everywhere(&random_block_kernel(g, horizon, None))
    });
    check("fast_no_failure_mass_estimated_kernel", CASES, |g| {
        let horizon = g.usize_in(FAST_BLOCK, 401);
        unit_reliability_everywhere(&estimated_run_kernel(g, horizon, 0.0))
    });
}

#[test]
fn classification_is_exhaustive_and_consistent() {
    check("classification_is_exhaustive_and_consistent", CASES, |g| {
        let n = g.usize_in(1, 500);
        let cpus = g.vec_of(n, Gen::prob);
        let mem = g.f64_in(0.0, 1024.0);
        let model = AvailabilityModel::default();
        let classifier = StateClassifier::new(model);
        let samples: Vec<LoadSample> = cpus
            .iter()
            .map(|&c| LoadSample {
                host_cpu: c,
                free_mem_mb: mem,
                alive: true,
            })
            .collect();
        let states = classifier.classify(&samples);
        ensure(
            states.len() == samples.len(),
            format!("{} states for {} samples", states.len(), samples.len()),
        )?;
        let memory_short = mem < model.guest_working_set_mb;
        for (s, sample) in states.iter().zip(&samples) {
            if memory_short {
                ensure(*s == State::S4, format!("expected S4, got {s}"))?;
            } else {
                ensure(
                    *s != State::S4 && *s != State::S5,
                    format!("memory/revocation state {s} without cause"),
                )?;
                // Below Th1 can only be S1; folding can also pull spikes down
                // to S1/S2, never up.
                if sample.host_cpu < model.th1 {
                    ensure(*s == State::S1, format!("cpu {} gave {s}", sample.host_cpu))?;
                }
            }
        }
        Ok(())
    });
}

#[test]
fn folding_never_creates_failures() {
    check("folding_never_creates_failures", CASES, |g| {
        let n = g.usize_in(1, 300);
        let cpus = g.vec_of(n, Gen::prob);
        let model = AvailabilityModel::default();
        let with = StateClassifier::new(model);
        let without = StateClassifier::new(model).without_transient_folding();
        let samples: Vec<LoadSample> = cpus
            .iter()
            .map(|&c| LoadSample {
                host_cpu: c,
                free_mem_mb: 512.0,
                alive: true,
            })
            .collect();
        let folded = with.classify(&samples);
        let raw = without.classify(&samples);
        for (f, r) in folded.iter().zip(&raw) {
            // Folding can only downgrade S3 to an operational state.
            if f != r {
                ensure(*r == State::S3, format!("folding changed {r} (not S3)"))?;
                ensure(f.is_operational(), format!("folded into failure {f}"))?;
            }
        }
        Ok(())
    });
}

#[test]
fn levinson_matches_lu_on_random_stationary_series() {
    check(
        "levinson_matches_lu_on_random_stationary_series",
        CASES,
        |g| {
            use fgcs::math::{matrix::Matrix, stats, toeplitz};
            let n = g.usize_in(50, 200);
            let xs = g.vec_of(n, |g| g.f64_in(-10.0, 10.0));
            let p = 4;
            let acov = stats::autocovariance(&xs, p);
            if acov[0] <= 1e-6 {
                // Degenerate (near-constant) series: nothing to compare.
                return Ok(());
            }
            let ld = match toeplitz::levinson_durbin(&acov, p) {
                Ok(r) => r,
                Err(_) => return Ok(()),
            };
            let mut m = Matrix::zeros(p, p);
            let mut rhs = vec![0.0; p];
            for i in 0..p {
                for j in 0..p {
                    m[(i, j)] = acov[i.abs_diff(j)];
                }
                rhs[i] = acov[i + 1];
            }
            if let Ok(direct) = m.solve(&rhs) {
                for (a, b) in ld.coeffs.iter().zip(&direct) {
                    ensure((a - b).abs() < 1e-6, format!("LD {a} vs LU {b}"))?;
                }
            }
            Ok(())
        },
    );
}

#[test]
fn guest_job_progress_conserves_work() {
    check("guest_job_progress_conserves_work", CASES, |g| {
        use fgcs::sim::GuestJob;
        let n = g.usize_in(1, 100);
        let allocs = g.vec_of(n, Gen::prob);
        let mut job = GuestJob::new(1, 1e6, 50.0);
        let mut expected = 0.0;
        for a in allocs {
            job.advance(a, 6.0);
            expected += a * 6.0;
        }
        ensure(
            (job.progress_secs - expected).abs() < 1e-6,
            format!("progress {} expected {expected}", job.progress_secs),
        )
    });
}

/// A fast model for the lossy-ingestion properties: a 10-minute monitor
/// period keeps a day at 144 samples so many cases stay cheap.
fn coarse_model() -> AvailabilityModel {
    AvailabilityModel {
        monitor_period_secs: 600,
        transient_tolerance_secs: 1_200,
        heartbeat_gap_secs: 1_800,
        ..AvailabilityModel::default()
    }
}

/// A random sample stream of whole and partial days, with a `corrupt`
/// fraction of insane readings (NaN / ±inf / out-of-range).
fn random_sample_stream(g: &mut Gen, model: &AvailabilityModel, corrupt: f64) -> Vec<LoadSample> {
    let per_day = model.samples_per_day();
    let len = g.usize_in(per_day / 2, 4 * per_day);
    g.vec_of(len, |g| {
        let mut s = LoadSample {
            host_cpu: g.prob(),
            free_mem_mb: g.f64_in(0.0, 512.0),
            alive: !g.bool_with(0.02),
        };
        if g.bool_with(corrupt) {
            let garbage = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 42.0, -7.0];
            s.host_cpu = *g.pick(&garbage);
            s.free_mem_mb = *g.pick(&garbage);
        }
        s
    })
}

#[test]
fn lossy_ingestion_is_deterministic() {
    use fgcs::core::HistoryStore;
    check("lossy_ingestion_is_deterministic", CASES, |g| {
        let model = coarse_model();
        let samples = random_sample_stream(g, &model, 0.15);
        let day0 = g.usize_in(0, 13);
        let (store_a, report_a) = HistoryStore::from_samples_lossy(&model, &samples, day0);
        let (store_b, report_b) = HistoryStore::from_samples_lossy(&model, &samples, day0);
        ensure(store_a == store_b, "stores diverged on identical input")?;
        ensure(report_a == report_b, "reports diverged on identical input")
    });
}

#[test]
fn sample_repair_is_idempotent() {
    use fgcs::core::log::sanitize_samples;
    check("sample_repair_is_idempotent", CASES, |g| {
        let model = coarse_model();
        let samples = random_sample_stream(g, &model, 0.25);
        let seed = LoadSample::idle(400.0);
        let (once, repaired) = sanitize_samples(&samples, seed);
        ensure(
            once.iter().all(LoadSample::is_sane),
            "repair left an insane sample",
        )?;
        let (twice, again) = sanitize_samples(&once, seed);
        ensure(again == 0, format!("second pass repaired {again} samples"))?;
        ensure(twice == once, "second pass changed the stream")?;
        // Repairs are exactly the insane samples; the sane ones are
        // untouched (so on clean input the repair is the identity).
        let insane = samples.iter().filter(|s| !s.is_sane()).count();
        ensure(
            repaired == insane,
            format!("{repaired} repairs vs {insane} insane"),
        )?;
        for (orig, fixed) in samples.iter().zip(&once) {
            if orig.is_sane() {
                ensure(orig == fixed, "a sane sample was modified")?;
            } else {
                ensure(orig.alive == fixed.alive, "repair dropped the heartbeat")?;
            }
        }
        Ok(())
    });
}

#[test]
fn lossy_ingestion_matches_strict_on_clean_whole_days() {
    use fgcs::core::HistoryStore;
    check(
        "lossy_ingestion_matches_strict_on_clean_whole_days",
        CASES,
        |g| {
            let model = coarse_model();
            let per_day = model.samples_per_day();
            let mut samples = random_sample_stream(g, &model, 0.0);
            samples.truncate(samples.len() / per_day * per_day);
            let day0 = g.usize_in(0, 13);
            let strict = HistoryStore::from_samples(&model, &samples, day0)
                .map_err(|e| format!("strict ingestion failed on clean input: {e}"))?;
            let (lossy, report) = HistoryStore::from_samples_lossy(&model, &samples, day0);
            ensure(
                report.is_clean(),
                format!("clean input reported {report:?}"),
            )?;
            ensure(
                lossy == strict,
                "lossy and strict stores differ on clean input",
            )
        },
    );
}
