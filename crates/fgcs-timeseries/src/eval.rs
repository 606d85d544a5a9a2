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

use std::convert::Infallible;

use fgcs_core::log::{DayLog, HistoryStore};
use fgcs_core::model::{AvailabilityModel, LoadSample};
use fgcs_core::predictor::{score_test_days, WindowEvaluation};
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
/// preceding the window on that day.
#[derive(Debug, Clone, PartialEq)]
pub struct TsDayCase {
    /// The test day's calendar index.
    pub day_index: usize,
    /// Severity series over the preceding window of the same length.
    pub history: Vec<f64>,
}

/// The day cases of one window: for each day of `day_type` in `test`, in
/// order, the severity series of the preceding window of the same length.
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
        .filter(|day| day.day_type == day_type)
        .filter_map(|day| {
            let offset = day.day_index.checked_sub(first_day_index)?;
            let start = (offset * per_day + start_step).checked_sub(steps)?;
            let history = samples.get(start..start + steps)?;
            Some(TsDayCase {
                day_index: day.day_index,
                history: severity_series(history, model),
            })
        })
        .collect()
}

/// Evaluates a time-series model on the test days of one window, scored by
/// the §6.2 test-day rule that [`fgcs_core::predictor::evaluate_window`]
/// uses: each counted day predicts survival (1) or failure (0) from its
/// case's forecast, and the mean prediction is compared against the
/// empirical survival fraction.
///
/// `cases` are [`ts_day_cases`] of the same `test`, `day_type` and
/// `window`. A counted day without a case, or whose history is empty, is
/// skipped. Returns `None` when no day is usable.
#[must_use]
pub fn evaluate_ts_window(
    model: &dyn TimeSeriesModel,
    cases: &[TsDayCase],
    test: &HistoryStore,
    day_type: DayType,
    window: TimeWindow,
    availability: &AvailabilityModel,
) -> Option<WindowEvaluation> {
    let steps = window.steps(availability.monitor_period_secs);
    let tolerance = availability.transient_tolerance_steps();
    let forecast_day = |day: &DayLog, _| -> Result<Option<f64>, Infallible> {
        let Ok(i) = cases.binary_search_by_key(&day.day_index, |c| c.day_index) else {
            return Ok(None);
        };
        Ok(match model.fit_forecast(&cases[i].history, steps) {
            Ok(forecast) => {
                let survives = forecast_survives(&forecast, availability.th2, tolerance);
                Some(if survives { 1.0 } else { 0.0 })
            }
            Err(TsError::EmptySeries) => None,
        })
    };
    score_test_days(test, day_type, window, forecast_day)
        .ok()
        .flatten()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bm::BmModel;
    use crate::last::LastModel;
    use fgcs_core::log::StateLog;
    use fgcs_core::state::State;

    fn model() -> AvailabilityModel {
        AvailabilityModel::default()
    }

    /// Weekdays 0, 1, … holding the given states at the default 6 s step.
    fn store_of(days: &[Vec<State>]) -> HistoryStore {
        let mut store = HistoryStore::new();
        for (i, states) in days.iter().enumerate() {
            store.push_day(DayLog::new(i, StateLog::new(6, states.clone())));
        }
        store
    }

    /// The window over a day's first `steps` steps.
    fn first_steps(steps: u32) -> TimeWindow {
        TimeWindow::new(0, steps * 6)
    }

    fn case(day_index: usize, history: Vec<f64>) -> TsDayCase {
        TsDayCase { day_index, history }
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
        let test = store_of(&[vec![State::S1; 101]]);
        let cases = vec![case(0, vec![0.1; 100])];
        let window = first_steps(100);
        let eval =
            evaluate_ts_window(&LastModel, &cases, &test, DayType::Weekday, window, &m).unwrap();
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
        let test = store_of(&[observed]);
        let cases = vec![case(0, vec![0.9; 100])];
        let window = first_steps(100);
        let eval = evaluate_ts_window(
            &BmModel::new(8),
            &cases,
            &test,
            DayType::Weekday,
            window,
            &m,
        )
        .unwrap();
        assert_eq!(eval.predicted, 0.0);
        assert_eq!(eval.empirical, 0.0);
        assert_eq!(eval.relative_error(), None);
    }

    #[test]
    fn failure_init_days_are_skipped() {
        let m = model();
        let test = store_of(&[vec![State::S5; 11]]);
        let cases = vec![case(0, vec![0.1; 10])];
        let window = first_steps(10);
        assert_eq!(
            evaluate_ts_window(&LastModel, &cases, &test, DayType::Weekday, window, &m),
            None
        );
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
            assert_eq!(case.day_index, day);
            assert_eq!(case.history, vec![level(day); 6]);
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
        let test = store_of(&[vec![State::S1; 101], failing]);
        let cases = vec![case(0, vec![0.1; 100]), case(1, vec![0.1; 100])];
        let window = first_steps(100);
        let eval =
            evaluate_ts_window(&LastModel, &cases, &test, DayType::Weekday, window, &m).unwrap();
        // Quiet histories predict survival for both; one actually failed.
        assert_eq!(eval.predicted, 1.0);
        assert_eq!(eval.empirical, 0.5);
        assert_eq!(eval.days_used, 2);
        assert!((eval.relative_error().unwrap() - 1.0).abs() < 1e-12);
    }
}
