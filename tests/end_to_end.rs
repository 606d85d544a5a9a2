//! End-to-end integration: trace generation → classification → history →
//! SMP estimation → temporal-reliability prediction → empirical validation.

use fgcs::core::predictor::{empirical_tr, evaluate_window};
use fgcs::prelude::*;

fn testbed(seed: u64, days: usize) -> (AvailabilityModel, MachineTrace) {
    let model = AvailabilityModel::default();
    let trace = TraceGenerator::new(TraceConfig::lab_machine(seed)).generate_days(days);
    (model, trace)
}

#[test]
fn full_pipeline_produces_bounded_tr() {
    let (model, trace) = testbed(1, 14);
    let history = trace.to_history(&model).unwrap();
    let predictor = SmpPredictor::new(model);
    for start in [0.0, 6.0, 12.0, 18.0] {
        for hours in [0.5, 1.0, 2.0] {
            let w = TimeWindow::from_hours(start, hours);
            for day_type in [DayType::Weekday, DayType::Weekend] {
                for init in [State::S1, State::S2] {
                    let tr = predictor
                        .predict(&history, day_type, w, init)
                        .expect("14 days cover every window type");
                    assert!((0.0..=1.0).contains(&tr), "TR {tr} out of bounds");
                }
            }
        }
    }
}

#[test]
fn prediction_is_deterministic() {
    let (model, trace) = testbed(2, 10);
    let history = trace.to_history(&model).unwrap();
    let predictor = SmpPredictor::new(model);
    let w = TimeWindow::from_hours(10.0, 1.0);
    let a = predictor
        .predict(&history, DayType::Weekday, w, State::S1)
        .unwrap();
    let b = predictor
        .predict(&history, DayType::Weekday, w, State::S1)
        .unwrap();
    assert_eq!(a, b);
}

#[test]
fn tr_decreases_with_window_length() {
    let (model, trace) = testbed(3, 20);
    let history = trace.to_history(&model).unwrap();
    let predictor = SmpPredictor::new(model);
    let mut prev = 1.0;
    for hours in [0.25, 0.5, 1.0, 2.0, 3.0] {
        let w = TimeWindow::from_hours(9.0, hours);
        let tr = predictor
            .predict(&history, DayType::Weekday, w, State::S1)
            .unwrap();
        assert!(
            tr <= prev + 1e-9,
            "TR should shrink with horizon: {tr} after {prev}"
        );
        prev = tr;
    }
}

#[test]
fn night_windows_more_reliable_than_midday() {
    let (model, trace) = testbed(4, 28);
    let history = trace.to_history(&model).unwrap();
    let predictor = SmpPredictor::new(model);
    let night = predictor
        .predict(
            &history,
            DayType::Weekday,
            TimeWindow::from_hours(2.0, 2.0),
            State::S1,
        )
        .unwrap();
    let midday = predictor
        .predict(
            &history,
            DayType::Weekday,
            TimeWindow::from_hours(13.0, 2.0),
            State::S1,
        )
        .unwrap();
    assert!(
        night > midday,
        "night TR {night} should exceed midday TR {midday}"
    );
}

#[test]
fn predicted_tr_tracks_empirical_tr() {
    // The central accuracy claim, at integration scale: on a 60-day trace
    // split 1:1, predictions over a mid-length window stay within a modest
    // relative error of the empirical survival frequency.
    let (model, trace) = testbed(5, 60);
    let history = trace.to_history(&model).unwrap();
    let (train, test) = history.split_ratio(1, 1);
    let predictor = SmpPredictor::new(model);
    let mut checked = 0;
    for start in [1.0, 9.0, 15.0, 21.0] {
        let w = TimeWindow::from_hours(start, 1.0);
        let Ok(eval) = evaluate_window(&predictor, &train, &test, DayType::Weekday, w) else {
            continue;
        };
        if let Some(err) = eval.relative_error() {
            assert!(
                err < 0.6,
                "window at {start}:00: pred {} vs emp {} (err {err})",
                eval.predicted,
                eval.empirical
            );
            checked += 1;
        }
    }
    assert!(checked >= 3, "too few windows evaluated: {checked}");
}

#[test]
fn empirical_tr_matches_manual_count() {
    let (model, trace) = testbed(6, 20);
    let history = trace.to_history(&model).unwrap();
    let w = TimeWindow::from_hours(9.0, 1.0);
    let tr = empirical_tr(&history, DayType::Weekday, w);
    // Manual recount.
    let mut used = 0;
    let mut survived = 0;
    for pos in 0..history.days().len() {
        if history.days()[pos].day_type != DayType::Weekday {
            continue;
        }
        let Some(states) = history.window_states(pos, w) else {
            continue;
        };
        if states[0].is_failure() {
            continue;
        }
        used += 1;
        if states[1..].iter().all(|s| s.is_operational()) {
            survived += 1;
        }
    }
    assert_eq!(tr, (used > 0).then(|| survived as f64 / used as f64));
}

#[test]
fn cross_midnight_prediction_consistent_with_in_day() {
    // A window at 23:30 + 1 h crosses midnight; the machinery must produce
    // a valid probability from stitched logs.
    let (model, trace) = testbed(7, 21);
    let history = trace.to_history(&model).unwrap();
    let predictor = SmpPredictor::new(model);
    let w = TimeWindow::new(23 * 3600 + 1800, 3600);
    assert!(w.crosses_midnight());
    let tr = predictor
        .predict(&history, DayType::Weekday, w, State::S1)
        .unwrap();
    assert!((0.0..=1.0).contains(&tr));
    // Night-time on a lab machine: should be decently reliable.
    assert!(tr > 0.5, "late-night TR suspiciously low: {tr}");
}

#[test]
fn noise_injection_shifts_prediction_bounded() {
    let (model, trace) = testbed(8, 40);
    let history = trace.to_history(&model).unwrap();
    let (train, _) = history.split_ratio(1, 1);
    let predictor = SmpPredictor::new(model);
    let w = TimeWindow::from_hours(8.0, 2.0);
    let clean = predictor
        .predict(&train, DayType::Weekday, w, State::S1)
        .unwrap();

    let mut noisy = train.clone();
    let mut rng = fgcs::runtime::rng::Xoshiro256::seed_from_u64(9);
    NoiseInjector::default().inject(&mut noisy, 3, &mut rng);
    let perturbed = predictor
        .predict(&noisy, DayType::Weekday, w, State::S1)
        .unwrap();
    // Noise only ever removes reliability, and boundedly so.
    assert!(perturbed <= clean + 1e-9);
    assert!(clean - perturbed < 0.5, "clean {clean} noisy {perturbed}");
}

#[test]
fn trace_serialization_round_trips_through_history() {
    let (model, trace) = testbed(10, 3);
    let json = trace.to_json().unwrap();
    let back = MachineTrace::from_json(&json).unwrap();
    assert_eq!(trace, back);
    assert_eq!(
        trace.to_history(&model).unwrap(),
        back.to_history(&model).unwrap()
    );
}

#[test]
fn calibration_band_holds_at_small_scale() {
    // 30-day smoke version of the §6.1 calibration: occurrences/day in a
    // generous band around the paper's 4.5-5/day.
    let (model, trace) = testbed(2006, 30);
    let history = trace.to_history(&model).unwrap();
    let stats = TraceStats::from_history(&history);
    let per_day = stats.occurrences_per_day();
    assert!(
        (2.5..=8.0).contains(&per_day),
        "occurrences/day {per_day} far from the paper's ~4.7"
    );
    assert!(stats.availability_fraction() > 0.9);
}
