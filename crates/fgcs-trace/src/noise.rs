//! Noise injection for the robustness experiment (paper §7.3, Figure 8).
//!
//! "To inject one instance of noise, we manually inserted one occurrence of
//! unavailability around 8:00 am (when unavailability is very rare due to
//! low resource utilization) to a training log of a weekday ... The holding
//! time of the added failure state was chosen randomly between 60 and 1800
//! seconds."

use fgcs_runtime::rng::Rng;

use fgcs_core::log::HistoryStore;
use fgcs_core::state::State;
use fgcs_core::window::DayType;
use fgcs_runtime::dist;

/// Injects irregular unavailability occurrences into training logs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseInjector {
    /// Centre of the injection time (seconds after midnight); the paper
    /// uses 8:00 am.
    pub time_of_day_secs: u32,
    /// Uniform jitter around the centre (± this many seconds).
    pub jitter_secs: u32,
    /// Minimum holding time of the injected failure (seconds).
    pub min_hold_secs: u32,
    /// Maximum holding time of the injected failure (seconds).
    pub max_hold_secs: u32,
    /// The failure state to inject.
    pub failure_state: State,
    /// When set, injections only target the most recent `n` weekday logs —
    /// the ones an N-most-recent-days predictor actually reads.
    pub recent_weekdays_only: Option<usize>,
}

impl Default for NoiseInjector {
    fn default() -> Self {
        NoiseInjector {
            time_of_day_secs: 8 * 3600,
            jitter_secs: 900,
            min_hold_secs: 60,
            max_hold_secs: 1800,
            failure_state: State::S3,
            recent_weekdays_only: None,
        }
    }
}

impl NoiseInjector {
    /// Injects `count` unavailability occurrences into randomly chosen
    /// weekday logs of `store`. Returns the `(day position, start step,
    /// length in steps)` of each injection.
    ///
    /// # Panics
    /// Panics if `failure_state` is not a failure state.
    pub fn inject<R: Rng + ?Sized>(
        &self,
        store: &mut HistoryStore,
        count: usize,
        rng: &mut R,
    ) -> Vec<(usize, usize, usize)> {
        assert!(
            self.failure_state.is_failure(),
            "injected state must be a failure state"
        );
        let mut weekday_positions: Vec<usize> = (0..store.days().len())
            .filter(|&i| store.days()[i].day_type == DayType::Weekday)
            .collect();
        if let Some(n) = self.recent_weekdays_only {
            let keep = weekday_positions.len().saturating_sub(n);
            weekday_positions.drain(..keep);
        }
        if weekday_positions.is_empty() {
            return Vec::new();
        }
        let mut injected = Vec::with_capacity(count);
        for _ in 0..count {
            let pos = weekday_positions[rng.range_usize(0, weekday_positions.len())];
            let day = &mut store.days_mut()[pos];
            let step = day.log.step_secs();
            let jitter = if self.jitter_secs > 0 {
                i64::from(rng.range_u32(0, 2 * self.jitter_secs + 1)) - i64::from(self.jitter_secs)
            } else {
                0
            };
            let at_secs = (i64::from(self.time_of_day_secs) + jitter).max(0) as u32;
            let start = (at_secs / step) as usize;
            let hold_secs = dist::uniform(
                rng,
                f64::from(self.min_hold_secs),
                f64::from(self.max_hold_secs),
            );
            let len = ((hold_secs / f64::from(step)).ceil() as usize).max(1);
            day.log.overwrite(start, len, self.failure_state);
            injected.push((pos, start, len));
        }
        injected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgcs_core::log::{DayLog, StateLog};
    use fgcs_runtime::rng::Xoshiro256;

    fn quiet_store(days: usize) -> HistoryStore {
        let mut store = HistoryStore::new();
        for d in 0..days {
            store.push_day(DayLog::new(d, StateLog::new(6, vec![State::S1; 14_400])));
        }
        store
    }

    #[test]
    fn injection_lands_near_eight_am_on_weekdays() {
        let mut store = quiet_store(7);
        let mut rng = Xoshiro256::seed_from_u64(1);
        let inj = NoiseInjector::default();
        let marks = inj.inject(&mut store, 10, &mut rng);
        assert_eq!(marks.len(), 10);
        for (pos, start, len) in marks {
            assert_eq!(store.days()[pos].day_type, DayType::Weekday);
            let secs = start * 6;
            assert!(
                (8 * 3600 - 900..=8 * 3600 + 900).contains(&(secs as u32)),
                "injection at {secs}s"
            );
            let hold = len * 6;
            assert!((60..=1806).contains(&hold), "hold {hold}s");
            // The log actually contains the failure.
            assert_eq!(store.days()[pos].log.states()[start], State::S3);
        }
    }

    #[test]
    fn injection_increases_unavailability_count() {
        let mut store = quiet_store(7);
        let before = store.unavailability_occurrences();
        let mut rng = Xoshiro256::seed_from_u64(2);
        NoiseInjector::default().inject(&mut store, 4, &mut rng);
        assert!(store.unavailability_occurrences() > before);
    }

    #[test]
    fn no_weekdays_means_no_injection() {
        let mut store = HistoryStore::new();
        store.push_day(DayLog::new(5, StateLog::new(6, vec![State::S1; 14_400])));
        let mut rng = Xoshiro256::seed_from_u64(3);
        let marks = NoiseInjector::default().inject(&mut store, 3, &mut rng);
        assert!(marks.is_empty());
    }

    #[test]
    #[should_panic(expected = "failure state")]
    fn injecting_operational_state_panics() {
        let mut store = quiet_store(1);
        let mut rng = Xoshiro256::seed_from_u64(4);
        let inj = NoiseInjector {
            failure_state: State::S1,
            ..NoiseInjector::default()
        };
        inj.inject(&mut store, 1, &mut rng);
    }
}
