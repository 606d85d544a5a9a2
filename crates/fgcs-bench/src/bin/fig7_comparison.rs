//! Figure 7 (and Table 1): maximum prediction errors of the SMP-based
//! algorithm vs the linear time-series models — AR(8), BM(8), MA(8),
//! ARMA(8,8), LAST — over time windows starting at 8:00 am on weekdays.
//!
//! Protocol (paper §7.2.1): equal-size training and test sets; the
//! time-series models "predict the state transitions in a future time
//! window based on the samples from the previous time window of the same
//! length"; per (start, length) the metric is the *maximum* prediction
//! error over the machines.
//!
//! Paper shape: SMP beats all five models, the advantage growing with the
//! window length (time-series models are more adept at short-term
//! prediction; multi-step-ahead forecasts degrade with lookahead).
//!
//! Run: `cargo run --release -p fgcs-bench --bin fig7_comparison
//!       [--machines N] [--days D] [--start H] [--weekend]`

use fgcs_bench::{flag, per_machine, Testbed};
use fgcs_core::predictor::{evaluate_window, evaluate_window_markov, SmpPredictor};
use fgcs_core::window::{DayType, TimeWindow, SECS_PER_DAY};
use fgcs_timeseries::{evaluate_ts_window, paper_lineup, ts_day_cases};

fn main() {
    let _metrics = fgcs_bench::MetricsExport::from_args();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let machines = flag(&args, "--machines").unwrap_or(8);
    let days = flag(&args, "--days").unwrap_or(90);
    let start_hour: f64 = flag(&args, "--start").unwrap_or(8.0);
    let day_type = if args.iter().any(|a| a == "--weekend") {
        DayType::Weekend
    } else {
        DayType::Weekday
    };

    let tb = Testbed::generate(2006, machines, days);
    let model_names: Vec<String> = {
        let lineup = paper_lineup();
        lineup.iter().map(|m| m.name()).collect()
    };

    println!("# Figure 7: maximum prediction errors, windows starting {start_hour}:00 {day_type}s ({machines} machines x {days} days)");
    println!("# Table 1 lineup: {}", model_names.join(", "));
    print!("{:>10} {:>10} {:>10}", "window_hr", "SMP", "MARKOV");
    for n in &model_names {
        print!(" {n:>10}");
    }
    println!();

    // The 1:1 split is deterministic, so compute it once.
    let splits: Vec<_> = tb.histories.iter().map(|h| h.split_ratio(1, 1)).collect();
    let predictor = SmpPredictor::new(tb.model);

    for hours in 1..=10usize {
        let window = TimeWindow::from_hours(start_hour, hours as f64);
        // Per machine: the SMP and Markov errors and each TS model's.
        let rows = per_machine(machines, |mi| {
            let trace = &tb.traces[mi];
            let (train, test) = &splits[mi];
            let smp = evaluate_window(&predictor, train, test, day_type, window)
                .ok()
                .and_then(|e| e.relative_error());
            let markov = evaluate_window_markov(&predictor, train, test, day_type, window)
                .ok()
                .and_then(|e| e.relative_error());

            let cases = ts_day_cases(
                &trace.samples,
                trace.first_day_index,
                test,
                day_type,
                window,
                &tb.model,
            );
            let ts: Vec<Option<f64>> = paper_lineup()
                .iter()
                .map(|m| {
                    evaluate_ts_window(m.as_ref(), &cases, test, day_type, window, &tb.model)
                        .and_then(|e| e.relative_error())
                })
                .collect();
            (smp, markov, ts)
        });

        // Maximum over machines, per algorithm.
        let max_smp = rows.iter().filter_map(|r| r.0).fold(f64::NAN, f64::max);
        let max_markov = rows.iter().filter_map(|r| r.1).fold(f64::NAN, f64::max);
        print!(
            "{:>10} {:>9.1}% {:>9.1}%",
            hours,
            100.0 * max_smp,
            100.0 * max_markov
        );
        for k in 0..model_names.len() {
            let max_ts = rows
                .iter()
                .filter_map(|(_, _, ts)| ts[k])
                .fold(f64::NAN, f64::max);
            print!(" {:>9.1}%", 100.0 * max_ts);
        }
        println!();
        debug_assert!(window.end_secs() <= 2 * SECS_PER_DAY);
    }
    println!(
        "# paper: SMP lowest everywhere; gap grows with window length (TS errors reach 100-250%)"
    );
}
