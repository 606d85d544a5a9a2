//! Figure 4: computation time of the availability prediction vs the time
//! window length — both the Q/H (kernel) estimation alone and the whole
//! prediction (estimation + TR recursion), the latter with the paper's
//! solver (`total_ms`) and with the production [`FastSolver`]
//! (`fast_total_ms`). A closing line times the three solvers
//! ([`DenseSolver`], the paper-order [`SparseSolver`], [`FastSolver`]) on
//! one 2-hour kernel, solve only — the solver ablation.
//!
//! Paper shape: total time grows superlinearly (measured exponent ≈ 1.85)
//! with the number of recursive steps; the Q/H estimation is a small
//! fraction of the total; the 10-hour window costs seconds on 2006
//! hardware (milliseconds today) — giving the headline "< 0.006 % of a
//! 10-hour job" overhead.
//!
//! Every figure is the fastest of [`REPS`] calls: noise on a shared
//! machine only ever adds time.
//!
//! Run: `cargo run --release -p fgcs-bench --bin fig4_overhead [--step SECS]`

use std::hint::black_box;
use std::time::Instant;

use fgcs_bench::Testbed;
use fgcs_core::model::AvailabilityModel;
use fgcs_core::predictor::SmpPredictor;
use fgcs_core::smp::{DenseSolver, FastSolver, SparseSolver};
use fgcs_core::state::State;
use fgcs_core::window::{DayType, TimeWindow};

/// Calls per timed figure.
const REPS: u32 = 5;

/// Wall-clock milliseconds of the fastest of [`REPS`] `f` calls.
fn fastest_ms<R>(mut f: impl FnMut() -> R) -> f64 {
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1000.0
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let _metrics = fgcs_bench::MetricsExport::from_args();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let step: u32 = args
        .iter()
        .position(|a| a == "--step")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(6);

    let model = AvailabilityModel {
        monitor_period_secs: step,
        ..AvailabilityModel::default()
    };
    // One machine's history is enough: the cost depends on the window, not
    // on the data volume (the estimation is linear in samples).
    let tb = Testbed::generate(2006, 1, 30);
    let history = if step == 6 {
        tb.histories[0].clone()
    } else {
        // Re-classify at the requested discretisation.
        let coarse = fgcs_trace::resample(&tb.traces[0], step).expect("step divides the day");
        coarse.to_history(&model).expect("steps match")
    };
    let predictor = SmpPredictor::new(model);
    let estimate = |window| {
        predictor
            .estimate_params(&history, DayType::Weekday, window)
            .expect("history covers window")
    };

    println!("# Figure 4: prediction computation time vs window length (d = {step}s)");
    println!(
        "{:>10} {:>8} {:>14} {:>14} {:>14}",
        "window_hr", "steps", "qh_ms", "total_ms", "fast_total_ms"
    );
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for hours in 1..=10u32 {
        let window = TimeWindow::from_hours(8.0, f64::from(hours));
        let steps = window.steps(step);

        let qh_ms = fastest_ms(|| estimate(window));
        let total_ms = fastest_ms(|| {
            SparseSolver::new(&estimate(window)).temporal_reliability(State::S1, steps)
        });
        let fast_total_ms = fastest_ms(|| {
            FastSolver::new(&estimate(window)).temporal_reliability(State::S1, steps)
        });

        println!(
            "{:>10} {:>8} {:>14.3} {:>14.3} {:>14.3}",
            hours, steps, qh_ms, total_ms, fast_total_ms
        );
        xs.push((steps as f64).ln());
        ys.push(total_ms.max(1e-6).ln());
    }

    // Log-log slope: the paper reports ≈ 1.85 (superlinear).
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let slope = sxy / sxx;
    println!("# measured scaling exponent: {slope:.2} (paper: ~1.85)");

    // The headline overhead figure: total prediction time relative to a
    // 10-hour guest job.
    let ten_hours_secs = 10.0 * 3600.0;
    let last_total_ms = ys.last().map(|y| y.exp()).unwrap_or(0.0);
    println!(
        "# overhead for a 10-hour job: {:.6}% (paper: < 0.006%)",
        100.0 * (last_total_ms / 1000.0) / ten_hours_secs
    );

    // Solver ablation: the dense 5-state solver, the paper's §5.3
    // sparsity-optimised recursion and the fast solver on one kernel.
    let window = TimeWindow::from_hours(8.0, 2.0);
    let steps = window.steps(step);
    let params = estimate(window);
    let dense_ms =
        fastest_ms(|| DenseSolver::from_params(&params).temporal_reliability(State::S1, steps));
    let paper_ms = fastest_ms(|| SparseSolver::new(&params).temporal_reliability(State::S1, steps));
    let fast_ms = fastest_ms(|| FastSolver::new(&params).temporal_reliability(State::S1, steps));
    println!(
        "# solver ablation, 2 h ({steps} steps, one kernel, solve only): \
         dense {dense_ms:.3} ms, paper-order {paper_ms:.3} ms, fast {fast_ms:.3} ms"
    );
}
