//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * the paper's §5.3 sparsity-optimised Eq.-3 recursion vs the dense
//!   5-state interval-transition solver vs the production fast solver,
//! * transient-spike folding on vs off in classification,
//! * same-day-type history selection vs all-days history in estimation.
//!
//! In-tree harness (`--features bench-harness`).

use fgcs_core::classify::StateClassifier;
use fgcs_core::model::AvailabilityModel;
use fgcs_core::predictor::SmpPredictor;
use fgcs_core::smp::{DenseSolver, FastSolver, SparseSolver};
use fgcs_core::state::State;
use fgcs_core::window::{DayType, TimeWindow};
use fgcs_runtime::bench::bench;
use fgcs_trace::{TraceConfig, TraceGenerator};

fn solver_ablation() {
    let model = AvailabilityModel::default();
    let trace = TraceGenerator::new(TraceConfig::lab_machine(2006)).generate_days(30);
    let history = trace.to_history(&model).unwrap();
    let predictor = SmpPredictor::new(model);
    let window = TimeWindow::from_hours(8.0, 2.0);
    let steps = window.steps(model.monitor_period_secs);
    let params = predictor
        .estimate_params(&history, DayType::Weekday, window)
        .unwrap();

    bench("solver_ablation_2h/dense_5state", || {
        DenseSolver::from_params(&params)
            .temporal_reliability(State::S1, steps)
            .unwrap()
    });
    bench("solver_ablation_2h/paper_eq3_sparse", || {
        SparseSolver::new(&params)
            .temporal_reliability(State::S1, steps)
            .unwrap()
    });
    bench("solver_ablation_2h/fast", || {
        FastSolver::new(&params)
            .temporal_reliability(State::S1, steps)
            .unwrap()
    });
}

fn folding_ablation() {
    let model = AvailabilityModel::default();
    let trace = TraceGenerator::new(TraceConfig::lab_machine(2006)).generate_days(1);
    let day = trace.day_samples(0).to_vec();

    for (name, classifier) in [
        ("with_folding", StateClassifier::new(model)),
        (
            "without_folding",
            StateClassifier::new(model).without_transient_folding(),
        ),
    ] {
        bench(&format!("classification_ablation/{name}"), || {
            classifier.classify(&day)
        });
    }
}

fn history_selection_ablation() {
    let model = AvailabilityModel::default();
    let trace = TraceGenerator::new(TraceConfig::lab_machine(2006)).generate_days(30);
    let history = trace.to_history(&model).unwrap();
    let window = TimeWindow::from_hours(8.0, 2.0);

    let same = SmpPredictor::new(model);
    bench("history_selection_ablation/same_day_type", || {
        same.estimate_params(&history, DayType::Weekday, window)
            .unwrap()
    });
    let all = SmpPredictor::new(model).with_all_day_types();
    bench("history_selection_ablation/all_day_types", || {
        all.estimate_params(&history, DayType::Weekday, window)
            .unwrap()
    });
}

fn main() {
    solver_ablation();
    folding_ablation();
    history_selection_ablation();
}
