//! Temporal-reliability prediction with the time-series baselines, as in
//! the paper's §6.2/§7.2.1 comparison: "we used time series models to
//! predict the state transitions in a future time window based on the
//! samples from the previous time window of the same length".
//!
//! The models forecast a scalar *severity series* derived from the monitor
//! samples — the host CPU load, saturated to 1.0 whenever the machine is
//! revoked or out of guest memory, so that all three failure classes are
//! visible to a load forecaster. A window is predicted to survive when the
//! forecast never stays above `Th2` for the transient tolerance (the same
//! rule the state classifier applies to observations).

use fgcs_core::log::HistoryStore;
use fgcs_core::model::{AvailabilityModel, LoadSample};
use fgcs_core::predictor::WindowEvaluation;
use fgcs_core::state::State;
use fgcs_core::window::{DayType, TimeWindow};

use crate::model::{TimeSeriesModel, TsError};

/// Maps monitor samples to the scalar severity series the baselines
/// forecast: the host CPU load, with revocation and memory exhaustion
/// saturating to 1.0.
#[must_use]
pub fn severity_series(samples: &[LoadSample], model: &AvailabilityModel) -> Vec<f64> {
    samples
        .iter()
        .map(|s| {
            if !s.alive || s.free_mem_mb < model.guest_working_set_mb {
                1.0
            } else {
                s.host_cpu
            }
        })
        .collect()
}

/// `true` when the forecast contains no above-`Th2` run of at least
/// `tolerance_steps` — the forecast-space analogue of "steadily higher than
/// Th2" (§3.3).
#[must_use]
pub fn forecast_survives(forecast: &[f64], th2: f64, tolerance_steps: usize) -> bool {
    let needed = tolerance_steps.max(1);
    let mut run = 0usize;
    for &v in forecast {
        if v > th2 {
            run += 1;
            if run >= needed {
                return false;
            }
        } else {
            run = 0;
        }
    }
    true
}

/// One test day for the time-series evaluation: the severity history
/// preceding the window and the observed states inside the window
/// (`steps + 1` fence posts, index 0 being the initial state).
#[derive(Debug, Clone, PartialEq)]
pub struct TsDayCase {
    /// Severity series over the preceding window of the same length.
    pub history: Vec<f64>,
    /// Observed states over the target window.
    pub observed: Vec<State>,
}

/// The day cases of one window: for each day of `day_type` in `test` whose
/// window is observed, the severity series of the preceding window of the
/// same length and the window's observed states.
///
/// `samples` is the machine's raw trace, `model.samples_per_day()` samples
/// per day from day `first_day_index` on, so a day's samples sit at its
/// offset from the trace's first day. A day whose preceding window falls
/// outside the trace is skipped.
#[must_use]
pub fn ts_day_cases(
    samples: &[LoadSample],
    first_day_index: usize,
    test: &HistoryStore,
    day_type: DayType,
    window: TimeWindow,
    model: &AvailabilityModel,
) -> Vec<TsDayCase> {
    let per_day = model.samples_per_day();
    let steps = window.steps(model.monitor_period_secs);
    let start_step = window.start_step(model.monitor_period_secs);
    test.days()
        .iter()
        .enumerate()
        .filter(|(_, day)| day.day_type == day_type)
        .filter_map(|(pos, day)| {
            let observed = test.window_states(pos, window)?;
            let offset = day.day_index.checked_sub(first_day_index)?;
            let start = (offset * per_day + start_step).checked_sub(steps)?;
            let history = samples.get(start..start + steps)?;
            Some(TsDayCase {
                history: severity_series(history, model),
                observed,
            })
        })
        .collect()
}

/// Evaluates a time-series model over a set of day cases, mirroring
/// [`fgcs_core::predictor::evaluate_window`]: per-day binary survival
/// predictions averaged into a predicted TR, compared against the empirical
/// survival fraction.
///
/// Days whose initial state is a failure are skipped. Returns `None` when
/// no day is usable or a forecast fails.
#[must_use]
pub fn evaluate_ts_window(
    model: &dyn TimeSeriesModel,
    cases: &[TsDayCase],
    availability: &AvailabilityModel,
) -> Option<WindowEvaluation> {
    let tolerance = availability.transient_tolerance_steps();
    let mut used = 0usize;
    let mut survived = 0usize;
    let mut predicted = 0.0;
    for case in cases {
        let init = *case.observed.first()?;
        if init.is_failure() {
            continue;
        }
        let steps = case.observed.len() - 1;
        let forecast = match model.fit_forecast(&case.history, steps) {
            Ok(f) => f,
            Err(TsError::EmptySeries) => continue,
            Err(_) => return None,
        };
        used += 1;
        if forecast_survives(&forecast, availability.th2, tolerance) {
            predicted += 1.0;
        }
        if case.observed[1..].iter().all(|s| s.is_operational()) {
            survived += 1;
        }
    }
    (used > 0).then(|| WindowEvaluation {
        predicted: predicted / used as f64,
        empirical: survived as f64 / used as f64,
        days_used: used,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bm::BmModel;
    use crate::last::LastModel;

    fn model() -> AvailabilityModel {
        AvailabilityModel::default()
    }

    #[test]
    fn severity_saturates_on_revocation_and_memory() {
        let m = model();
        let samples = [
            LoadSample {
                host_cpu: 0.3,
                free_mem_mb: 500.0,
                alive: true,
            },
            LoadSample::revoked(),
            LoadSample {
                host_cpu: 0.1,
                free_mem_mb: 10.0,
                alive: true,
            },
        ];
        assert_eq!(severity_series(&samples, &m), vec![0.3, 1.0, 1.0]);
    }

    #[test]
    fn forecast_survival_requires_sustained_overload() {
        // tolerance 10 steps at default config.
        let mut f = vec![0.3; 100];
        assert!(forecast_survives(&f, 0.6, 10));
        for v in &mut f[20..25] {
            *v = 0.9; // 5-step spike: transient
        }
        assert!(forecast_survives(&f, 0.6, 10));
        for v in &mut f[50..65] {
            *v = 0.9; // 15-step overload
        }
        assert!(!forecast_survives(&f, 0.6, 10));
    }

    #[test]
    fn zero_tolerance_means_any_overload_fails() {
        assert!(!forecast_survives(&[0.7], 0.6, 0));
        assert!(forecast_survives(&[0.5], 0.6, 0));
    }

    #[test]
    fn last_model_predicts_survival_from_quiet_history() {
        let m = model();
        let cases = vec![TsDayCase {
            history: vec![0.1; 100],
            observed: vec![State::S1; 101],
        }];
        let eval = evaluate_ts_window(&LastModel, &cases, &m).unwrap();
        assert_eq!(eval.predicted, 1.0);
        assert_eq!(eval.empirical, 1.0);
        assert_eq!(eval.days_used, 1);
    }

    #[test]
    fn loaded_history_predicts_failure() {
        let m = model();
        let mut observed = vec![State::S1; 101];
        for s in &mut observed[50..] {
            *s = State::S3;
        }
        let cases = vec![TsDayCase {
            history: vec![0.9; 100],
            observed,
        }];
        let eval = evaluate_ts_window(&BmModel::new(8), &cases, &m).unwrap();
        assert_eq!(eval.predicted, 0.0);
        assert_eq!(eval.empirical, 0.0);
        assert_eq!(eval.relative_error(), None);
    }

    #[test]
    fn failure_init_days_are_skipped() {
        let m = model();
        let cases = vec![TsDayCase {
            history: vec![0.1; 10],
            observed: vec![State::S5; 11],
        }];
        assert_eq!(evaluate_ts_window(&LastModel, &cases, &m), None);
    }

    #[test]
    fn day_cases_read_each_day_at_its_offset_from_the_first_day() {
        // Four days of a trace that starts at day 5 (days 5 and 6 are a
        // weekend), one load level per day, all below Th1. Each case's
        // history is the hour before 12:00 of its own day.
        let m = AvailabilityModel {
            monitor_period_secs: 600,
            transient_tolerance_secs: 1_200,
            heartbeat_gap_secs: 1_800,
            ..AvailabilityModel::default()
        };
        let per_day = m.samples_per_day();
        let level = |day: usize| 0.02 * (day - 4) as f64;
        let samples: Vec<LoadSample> = (5..9)
            .flat_map(|day| {
                let sample = LoadSample {
                    host_cpu: level(day),
                    free_mem_mb: 500.0,
                    alive: true,
                };
                vec![sample; per_day]
            })
            .collect();
        let test = HistoryStore::from_samples(&m, &samples, 5).unwrap();
        let window = TimeWindow::from_hours(12.0, 1.0);
        let cases = ts_day_cases(&samples, 5, &test, DayType::Weekday, window, &m);
        assert_eq!(cases.len(), 2);
        for (case, day) in cases.iter().zip([7, 8]) {
            assert_eq!(case.history, vec![level(day); 6]);
            assert_eq!(case.observed, vec![State::S1; 7]);
        }
        let weekend = ts_day_cases(&samples, 5, &test, DayType::Weekend, window, &m);
        assert_eq!(weekend.len(), 2);
        assert_eq!(weekend[0].history, vec![level(5); 6]);
        // A window starting at midnight of the first day has no preceding
        // window in the trace.
        let first_hour = TimeWindow::from_hours(0.0, 1.0);
        let cases = ts_day_cases(&samples, 5, &test, DayType::Weekend, first_hour, &m);
        assert_eq!(cases.len(), 1);
        assert_eq!(cases[0].history, vec![level(5); 6]);
    }

    #[test]
    fn mixed_days_average() {
        let m = model();
        let mut failing = vec![State::S1; 101];
        failing[100] = State::S5;
        let cases = vec![
            TsDayCase {
                history: vec![0.1; 100],
                observed: vec![State::S1; 101],
            },
            TsDayCase {
                history: vec![0.1; 100],
                observed: failing,
            },
        ];
        let eval = evaluate_ts_window(&LastModel, &cases, &m).unwrap();
        // Quiet histories predict survival for both; one actually failed.
        assert_eq!(eval.predicted, 1.0);
        assert_eq!(eval.empirical, 0.5);
        assert_eq!(eval.days_used, 2);
        assert!((eval.relative_error().unwrap() - 1.0).abs() < 1e-12);
    }
}
