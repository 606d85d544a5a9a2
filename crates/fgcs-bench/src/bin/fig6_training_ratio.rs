//! Figure 6: relative prediction errors vs the ratio of training and test
//! data sizes (1:9 … 9:1), on weekdays.
//!
//! Paper protocol: the same 240 time windows as Figure 5 (24 start hours ×
//! 10 window lengths of 1–10 h), each error pooled over the machines' test
//! days as in Figure 5 ([`fgcs_bench::pooled_errors`]); two metrics per
//! ratio: *max-average* (the per-length averages over start hours,
//! maximised over lengths) and the plain maximum over all 240 windows. Paper shape: a sweet spot exists at
//! an interior ratio (6:4 on their data) — more training data helps until
//! stale days start biasing the estimate (and the shrinking test set makes
//! the empirical reference noisier).
//!
//! Run: `cargo run --release -p fgcs-bench --bin fig6_training_ratio
//!       [--machines N] [--days D]`

use fgcs_bench::{flag, pct, pooled_errors, Testbed};
use fgcs_core::predictor::{evaluate_window, SmpPredictor};
use fgcs_core::window::DayType;

fn main() {
    let _metrics = fgcs_bench::MetricsExport::from_args();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let machines = flag(&args, "--machines").unwrap_or(8);
    let days = flag(&args, "--days").unwrap_or(90);

    let tb = Testbed::generate(2006, machines, days);
    println!(
        "# Figure 6: relative prediction errors vs training:test ratio ({machines} machines x {days} days, weekdays, 240 windows)"
    );
    println!("{:>8} {:>16} {:>16}", "ratio", "max_avg_err", "max_err");

    let predictor = SmpPredictor::new(tb.model);
    for train in 1..=9usize {
        let test = 10 - train;
        let splits: Vec<_> = tb
            .histories
            .iter()
            .map(|h| h.split_ratio(train, test))
            .collect();
        // The pooled per-start errors of each window length, 1-10 h.
        let per_length_errors: Vec<Vec<f64>> = (1..=10u32)
            .map(|hours| {
                pooled_errors(machines, f64::from(hours), |mi, window| {
                    let (tr, te) = &splits[mi];
                    evaluate_window(&predictor, tr, te, DayType::Weekday, window).ok()
                })
            })
            .collect();
        let max_avg = per_length_errors
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| fgcs_math::stats::mean(v))
            .fold(0.0_f64, f64::max);
        let max = per_length_errors
            .iter()
            .flatten()
            .fold(0.0_f64, |m, &e| m.max(e));
        println!(
            "{:>5}:{:<2} {:>16} {:>16}",
            train,
            test,
            pct(max_avg),
            pct(max)
        );
    }
    println!("# paper: sweet spot near 6:4 — an interior minimum of max_avg_err");
}
