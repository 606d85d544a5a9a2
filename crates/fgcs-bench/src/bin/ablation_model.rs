//! Ablation study of the availability model's design choices (DESIGN.md §5):
//!
//! * **SMP** — the paper's predictor as-is,
//! * **MARKOV** — first-order Markov chain (geometric holding times):
//!   removes the semi-Markov structure,
//! * **NO-FOLD** — transient >Th2 spikes classified as S3 instead of being
//!   folded into the surrounding operational state,
//! * **ALL-DAYS** — statistics drawn from both weekdays and weekends
//!   instead of same-type days only.
//!
//! Metric: mean relative TR error over 24 start hours, weekdays, 1:1 split,
//! each error pooled over the machines' test days
//! ([`fgcs_bench::pooled_errors`]) — the Figure-5 protocol.
//!
//! Run: `cargo run --release -p fgcs-bench --bin ablation_model
//!       [--machines N] [--days D]`

use fgcs_bench::{flag, pct, pooled_errors, Testbed, WINDOW_HOURS};
use fgcs_core::predictor::{evaluate_window, evaluate_window_markov, SmpPredictor};
use fgcs_core::window::DayType;

fn main() {
    let _metrics = fgcs_bench::MetricsExport::from_args();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let machines = flag(&args, "--machines").unwrap_or(8);
    let days = flag(&args, "--days").unwrap_or(90);

    let tb = Testbed::generate(2006, machines, days);
    let splits: Vec<_> = tb.histories.iter().map(|h| h.split_ratio(1, 1)).collect();
    let unfolded: Vec<_> = tb
        .unfolded_histories()
        .iter()
        .map(|h| h.split_ratio(1, 1))
        .collect();
    let base = SmpPredictor::new(tb.model);
    let all_days = SmpPredictor::new(tb.model).with_all_day_types();

    println!(
        "# Model ablations: mean relative TR error, weekdays, {machines} machines x {days} days"
    );
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>10}",
        "window_hr", "SMP", "MARKOV", "NO-FOLD", "ALL-DAYS"
    );

    let weekday = DayType::Weekday;
    let mut alldays_wins = 0;
    for &hours in &WINDOW_HOURS {
        let smp = pooled_errors(machines, hours, |mi, w| {
            evaluate_window(&base, &splits[mi].0, &splits[mi].1, weekday, w).ok()
        });
        let markov = pooled_errors(machines, hours, |mi, w| {
            evaluate_window_markov(&base, &splits[mi].0, &splits[mi].1, weekday, w).ok()
        });
        let nofold = pooled_errors(machines, hours, |mi, w| {
            evaluate_window(&base, &unfolded[mi].0, &unfolded[mi].1, weekday, w).ok()
        });
        let alldays = pooled_errors(machines, hours, |mi, w| {
            evaluate_window(&all_days, &splits[mi].0, &splits[mi].1, weekday, w).ok()
        });
        let [smp, markov, nofold, alldays] = [smp, markov, nofold, alldays]
            .map(|errors| (!errors.is_empty()).then(|| fgcs_math::stats::mean(&errors)));
        alldays_wins += usize::from(matches!((alldays, smp), (Some(a), Some(s)) if a < s));
        let cell = |mean: Option<f64>| mean.map_or_else(|| "-".to_string(), pct);
        println!(
            "{:>10} {:>10} {:>10} {:>10} {:>10}",
            hours,
            cell(smp),
            cell(markov),
            cell(nofold),
            cell(alldays),
        );
    }
    println!("# MARKOV degrades with window length (holding-time structure matters). NO-FOLD");
    println!("# misclassifies every transient spike as failure and collapses ('-' = empirical");
    println!(
        "# TR hit zero for all windows). ALL-DAYS beats SMP at {alldays_wins} of {} windows, and not",
        WINDOW_HOURS.len()
    );
    println!("# through more training days: SMP predicts TR too low (as low when fit on the");
    println!("# test days themselves), and the lighter weekend days pull ALL-DAYS' TR up");
    println!("# against that one-sided bias.");
}
