//! Figure 5: relative error of the predicted temporal reliability vs the
//! time-window length, on weekdays (a) and weekends (b).
//!
//! Protocol (paper §7.2): split each machine's trace 1:1 into training and
//! test sets, estimate the SMP parameters from the training set, predict TR
//! for windows of length {1, 2, 3, 5, 10} h starting at every hour
//! 0:00–23:00, and compare against the empirical TR of the test set. At
//! each start time every machine's usable test days are pooled
//! ([`fgcs_bench::pooled_errors`]); each point reports the average pooled
//! error over the 24 start times, and the bars report min and max. The
//! machines are evaluated in parallel, in machine order.
//!
//! Paper shape: error grows with window length; average accuracy stays
//! above 86.5 %, worst case above 73.3 %; small windows do slightly worse
//! on weekends (smaller training sets).
//!
//! Run: `cargo run --release -p fgcs-bench --bin fig5_accuracy [--machines N]
//!       [--days D] [--profile lab|enterprise|server]
//!       [--no-transient-folding] [--history=all]`
//!
//! `--profile enterprise` / `--profile server` reproduce the paper's §8
//! future-work plan ("test our prediction mechanisms on testbeds with
//! different workload patterns, such as ... enterprise desktop resources").

use fgcs_bench::{flag, pct, pooled_errors, summarize_errors, Testbed, WINDOW_HOURS};
use fgcs_core::predictor::{evaluate_window, SmpPredictor};
use fgcs_core::window::DayType;

fn main() {
    let _metrics = fgcs_bench::MetricsExport::from_args();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let machines = flag(&args, "--machines").unwrap_or(8);
    let days = flag(&args, "--days").unwrap_or(90);
    let no_folding = args.iter().any(|a| a == "--no-transient-folding");
    let all_days = args.iter().any(|a| a == "--history=all");
    let profile: String = flag(&args, "--profile").unwrap_or_else(|| "lab".into());

    let tb = Testbed::generate_profile(2006, machines, days, &profile);
    println!("# Figure 5: relative error of predicted TR ({machines} {profile} machines x {days} days, 1:1 split)");
    if no_folding {
        println!("# ablation: transient folding DISABLED");
    }
    if all_days {
        println!("# ablation: history from BOTH day types");
    }

    let histories = if no_folding {
        tb.unfolded_histories()
    } else {
        tb.histories.clone()
    };
    // One split and one predictor for the whole sweep.
    let splits: Vec<_> = histories.iter().map(|h| h.split_ratio(1, 1)).collect();
    let mut predictor = SmpPredictor::new(tb.model);
    if all_days {
        predictor = predictor.with_all_day_types();
    }

    for day_type in [DayType::Weekday, DayType::Weekend] {
        println!(
            "\n## ({}) prediction on {day_type}s",
            if day_type == DayType::Weekday {
                "a"
            } else {
                "b"
            }
        );
        println!(
            "{:>10} {:>10} {:>10} {:>10} {:>8}",
            "window_hr", "avg_err", "min_err", "max_err", "n"
        );
        for &hours in &WINDOW_HOURS {
            let errors = pooled_errors(machines, hours, |mi, window| {
                let (train, test) = &splits[mi];
                evaluate_window(&predictor, train, test, day_type, window).ok()
            });
            let s = summarize_errors(&errors);
            println!(
                "{:>10} {:>10} {:>10} {:>10} {:>8}",
                hours,
                pct(s.avg),
                pct(s.min),
                pct(s.max),
                s.n
            );
        }
    }
    println!(
        "\n# paper: avg accuracy > 86.5% (avg_err < 13.5%), worst case > 73.3% (max_err < 26.7%)"
    );
}
