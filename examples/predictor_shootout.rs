//! Predictor shootout: the SMP availability predictor against the five
//! linear time-series baselines on one machine — a miniature of the
//! paper's Figure 7 experiment, with per-model commentary.
//!
//! Run: `cargo run --release --example predictor_shootout`

use fgcs::core::predictor::evaluate_window;
use fgcs::prelude::*;
use fgcs::timeseries::{evaluate_ts_window, ts_day_cases};

fn main() {
    let model = AvailabilityModel::default();
    let trace = TraceGenerator::new(TraceConfig::lab_machine(2006)).generate_days(60);
    let history = trace.to_history(&model).expect("steps match");
    let (train, test) = history.split_ratio(1, 1);

    println!("machine 0, 60 days, 1:1 train/test split; windows start 08:00 on weekdays\n");
    println!(
        "{:<12} {:>12} {:>12} {:>12}",
        "model", "2h_err", "5h_err", "10h_err"
    );

    let mut rows: Vec<(String, Vec<Option<f64>>)> = Vec::new();

    // SMP predictor.
    let predictor = SmpPredictor::new(model);
    let smp_errs: Vec<Option<f64>> = [2.0, 5.0, 10.0]
        .iter()
        .map(|&h| {
            let w = TimeWindow::from_hours(8.0, h);
            evaluate_window(&predictor, &train, &test, DayType::Weekday, w)
                .ok()
                .and_then(|e| e.relative_error())
        })
        .collect();
    rows.push(("SMP".into(), smp_errs));

    // Time-series lineup.
    for ts_model in paper_lineup() {
        let errs: Vec<Option<f64>> = [2.0, 5.0, 10.0]
            .iter()
            .map(|&h| {
                let w = TimeWindow::from_hours(8.0, h);
                let cases = ts_day_cases(
                    &trace.samples,
                    trace.first_day_index,
                    &test,
                    DayType::Weekday,
                    w,
                    &model,
                );
                evaluate_ts_window(ts_model.as_ref(), &cases, &model)
                    .and_then(|e| e.relative_error())
            })
            .collect();
        rows.push((ts_model.name(), errs));
    }

    for (name, errs) in &rows {
        print!("{name:<12}");
        for e in errs {
            match e {
                Some(e) => print!(" {:>11.1}%", 100.0 * e),
                None => print!(" {:>12}", "-"),
            }
        }
        println!();
    }

    println!("\nthe SMP predictor models *when* the machine fails (the dynamic structure);");
    println!("the linear models forecast the load level and miss unavailability that has");
    println!("not started yet — the gap grows with the prediction horizon.");
}
