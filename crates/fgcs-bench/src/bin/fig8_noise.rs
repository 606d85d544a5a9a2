//! Figure 8: robustness — prediction discrepancy vs the amount of noise
//! (irregular unavailability occurrences) injected into the training data.
//!
//! Protocol (paper §7.3): inject 1–10 occurrences of unavailability around
//! 8:00 am (holding time uniform in [60 s, 1800 s]) into weekday training
//! logs; the discrepancy is the relative difference between the TR
//! predicted from the noisy and from the clean training data, for windows
//! of length T ∈ {1, 2, 3, 5, 10} h starting at 8:00.
//!
//! Paper shape: small windows are sensitive (4 injections → > 50 %
//! discrepancy at T = 1 h); windows of 2 h and more stay below ~6 % even
//! at 10 injections, because they draw on more history data.
//!
//! Run: `cargo run --release -p fgcs-bench --bin fig8_noise [--machines N]
//!       [--days D] [--trials K]`

use fgcs_runtime::rng::Xoshiro256;

use fgcs_bench::{flag, per_machine, Testbed, WINDOW_HOURS};
use fgcs_core::predictor::SmpPredictor;
use fgcs_core::state::State;
use fgcs_core::window::{DayType, TimeWindow};
use fgcs_trace::NoiseInjector;

fn main() {
    let _metrics = fgcs_bench::MetricsExport::from_args();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let machines = flag(&args, "--machines").unwrap_or(4);
    let days = flag(&args, "--days").unwrap_or(90);
    let trials: usize = flag(&args, "--trials").unwrap_or(3);
    // The paper computes the SMP parameters from "the most recent N
    // weekdays"; the Figure 8 sensitivities (4 injections moving a 1-hour
    // prediction by > 50 %) imply a small N. We use N = 8 and inject into
    // exactly those recent logs.
    let recent_days = flag(&args, "--recent-days").unwrap_or(8);

    let tb = Testbed::generate(2006, machines, days);
    println!("# Figure 8: prediction discrepancy vs injected noise ({machines} machines x {days} days, {trials} trials, N={recent_days} recent weekdays, windows start 8:00 weekdays)");
    print!("{:>8}", "noise");
    for &t in &WINDOW_HOURS {
        print!(" {:>9}", format!("T={t}h"));
    }
    println!();

    for noise_count in 1..=10usize {
        // Per machine and trial: discrepancy per window length.
        let per = per_machine(machines, |mi| {
            let (train, _test) = tb.histories[mi].split_ratio(1, 1);
            let predictor = SmpPredictor::new(tb.model).with_max_history_days(recent_days);
            let clean: Vec<Option<f64>> = WINDOW_HOURS
                .iter()
                .map(|&h| {
                    let w = TimeWindow::from_hours(8.0, h);
                    predictor
                        .predict(&train, DayType::Weekday, w, State::S1)
                        .ok()
                })
                .collect();
            let mut discrepancies = vec![Vec::new(); WINDOW_HOURS.len()];
            for trial in 0..trials {
                let mut rng = Xoshiro256::seed_from_u64(777 + mi as u64 * 100 + trial as u64);
                let mut noisy = train.clone();
                let injector = NoiseInjector {
                    recent_weekdays_only: Some(recent_days),
                    ..NoiseInjector::default()
                };
                injector.inject(&mut noisy, noise_count, &mut rng);
                for (k, &h) in WINDOW_HOURS.iter().enumerate() {
                    let w = TimeWindow::from_hours(8.0, h);
                    let Some(clean_tr) = clean[k] else { continue };
                    let Ok(noisy_tr) = predictor.predict(&noisy, DayType::Weekday, w, State::S1)
                    else {
                        continue;
                    };
                    if clean_tr > 0.0 {
                        discrepancies[k].push((noisy_tr - clean_tr).abs() / clean_tr);
                    }
                }
            }
            discrepancies
        });
        print!("{noise_count:>8}");
        for k in 0..WINDOW_HOURS.len() {
            let all: Vec<f64> = per.iter().flat_map(|d| d[k].iter().copied()).collect();
            if all.is_empty() {
                print!(" {:>9}", "-");
            } else {
                print!(" {:>8.1}%", 100.0 * fgcs_math::stats::mean(&all));
            }
        }
        println!();
    }
    println!("# paper: T=1h exceeds 50% by 4 injections; T>=2h stays < ~6% at 10 injections");
}
