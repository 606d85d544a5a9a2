//! Micro-bench for the temporal-reliability solvers — the quantity
//! Figure 4 plots (prediction computation time vs window length).
//!
//! Runs on the in-tree harness: `cargo bench --features bench-harness`.

use fgcs_core::model::AvailabilityModel;
use fgcs_core::predictor::SmpPredictor;
use fgcs_core::smp::{FastSolver, SparseSolver};
use fgcs_core::state::State;
use fgcs_core::window::{DayType, TimeWindow};
use fgcs_runtime::bench::bench;
use fgcs_trace::{TraceConfig, TraceGenerator};

fn main() {
    let model = AvailabilityModel::default();
    let trace = TraceGenerator::new(TraceConfig::lab_machine(2006)).generate_days(30);
    let history = trace.to_history(&model).unwrap();
    let predictor = SmpPredictor::new(model);

    for hours in [1u32, 2, 5, 10] {
        let window = TimeWindow::from_hours(8.0, f64::from(hours));
        let steps = window.steps(model.monitor_period_secs);
        let params = predictor
            .estimate_params(&history, DayType::Weekday, window)
            .unwrap();

        bench(&format!("tr_solver/paper_eq3/{hours}h"), || {
            SparseSolver::new(&params)
                .temporal_reliability(State::S1, steps)
                .unwrap()
        });
        bench(&format!("tr_solver/fast/{hours}h"), || {
            FastSolver::new(&params)
                .temporal_reliability(State::S1, steps)
                .unwrap()
        });
    }
}
