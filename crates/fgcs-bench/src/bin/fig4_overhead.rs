//! Figure 4: computation time of the availability prediction vs the time
//! window length — both the Q/H (kernel) estimation alone and the whole
//! prediction (estimation + TR recursion).
//!
//! Paper shape: total time grows superlinearly (measured exponent ≈ 1.85)
//! with the number of recursive steps; the Q/H estimation is a small
//! fraction of the total; the 10-hour window costs seconds on 2006
//! hardware (milliseconds today) — giving the headline "< 0.006 % of a
//! 10-hour job" overhead.
//!
//! Run: `cargo run --release -p fgcs-bench --bin fig4_overhead [--step SECS]`

use std::time::Instant;

use fgcs_bench::Testbed;
use fgcs_core::model::AvailabilityModel;
use fgcs_core::predictor::SmpPredictor;
use fgcs_core::smp::{SmpParams, SparseSolver};
use fgcs_core::state::State;
use fgcs_core::window::{DayType, TimeWindow};

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

    println!("# Figure 4: prediction computation time vs window length (d = {step}s)");
    println!(
        "{:>10} {:>8} {:>14} {:>14}",
        "window_hr", "steps", "qh_ms", "total_ms"
    );
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for hours in 1..=10u32 {
        let window = TimeWindow::from_hours(8.0, f64::from(hours));
        let steps = window.steps(step);

        // Q/H estimation alone.
        let t0 = Instant::now();
        let reps = 5;
        let mut params: Option<SmpParams> = None;
        for _ in 0..reps {
            params = Some(
                predictor
                    .estimate_params(&history, DayType::Weekday, window)
                    .expect("history covers window"),
            );
        }
        let qh_ms = t0.elapsed().as_secs_f64() * 1000.0 / f64::from(reps);

        // Whole prediction.
        let t1 = Instant::now();
        for _ in 0..reps {
            let p = predictor
                .estimate_params(&history, DayType::Weekday, window)
                .expect("history covers window");
            let _ = SparseSolver::new(&p).temporal_reliability(State::S1, steps);
        }
        let total_ms = t1.elapsed().as_secs_f64() * 1000.0 / f64::from(reps);
        drop(params);

        println!(
            "{:>10} {:>8} {:>14.3} {:>14.3}",
            hours, steps, qh_ms, total_ms
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
}
