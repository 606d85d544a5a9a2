//! Descriptive statistics of traces and history logs: the quantities the
//! paper reports about its testbed (§6.1) and that we use to calibrate the
//! synthetic generator against it.

use fgcs_core::log::HistoryStore;
use fgcs_core::state::State;

/// Summary of unavailability behaviour over a history store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    /// Days covered.
    pub days: usize,
    /// Total unavailability occurrences (entries into S3/S4/S5).
    pub occurrences: usize,
    /// Occurrences broken down by failure state `[S3, S4, S5]`.
    pub by_state: [usize; 3],
    /// Fraction of samples spent in each of the five states.
    pub state_fractions: [f64; 5],
    /// Mean duration of a contiguous failure period, in seconds.
    pub mean_outage_secs: f64,
}

impl TraceStats {
    /// Computes the statistics from a history store.
    #[must_use]
    pub fn from_history(store: &HistoryStore) -> TraceStats {
        let mut by_state = [0usize; 3];
        let mut counts = [0u64; 5];
        let mut outage_samples = 0u64;
        let mut outage_periods = 0u64;
        let mut step_secs = 6u32;

        let mut prev_failure = true; // suppress a leading failure period
        for day in store.days() {
            step_secs = day.log.step_secs();
            for &(s, n) in day.log.runs() {
                counts[s.index()] += u64::from(n);
                if s.is_failure() {
                    outage_samples += u64::from(n);
                    if !prev_failure {
                        outage_periods += 1;
                        by_state[s.index() - 2] += 1;
                    }
                }
                prev_failure = s.is_failure();
            }
        }
        let total: u64 = counts.iter().sum();
        let mut state_fractions = [0.0; 5];
        if total > 0 {
            for (f, c) in state_fractions.iter_mut().zip(&counts) {
                *f = *c as f64 / total as f64;
            }
        }
        let occurrences = by_state.iter().sum();
        TraceStats {
            days: store.len(),
            occurrences,
            by_state,
            state_fractions,
            mean_outage_secs: if outage_periods > 0 {
                outage_samples as f64 * f64::from(step_secs) / outage_periods as f64
            } else {
                0.0
            },
        }
    }

    /// Occurrences per day (0 for an empty store).
    #[must_use]
    pub fn occurrences_per_day(&self) -> f64 {
        if self.days == 0 {
            0.0
        } else {
            self.occurrences as f64 / self.days as f64
        }
    }

    /// Fraction of time the machine offered *some* availability (S1 or S2).
    #[must_use]
    pub fn availability_fraction(&self) -> f64 {
        self.state_fractions[State::S1.index()] + self.state_fractions[State::S2.index()]
    }
}

impl std::fmt::Display for TraceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "days:                 {}", self.days)?;
        writeln!(
            f,
            "occurrences:          {} ({:.2}/day)",
            self.occurrences,
            self.occurrences_per_day()
        )?;
        writeln!(
            f,
            "  S3 (CPU UEC):       {}  S4 (mem UEC): {}  S5 (URR): {}",
            self.by_state[0], self.by_state[1], self.by_state[2]
        )?;
        writeln!(
            f,
            "state fractions:      S1 {:.3} | S2 {:.3} | S3 {:.3} | S4 {:.3} | S5 {:.3}",
            self.state_fractions[0],
            self.state_fractions[1],
            self.state_fractions[2],
            self.state_fractions[3],
            self.state_fractions[4]
        )?;
        write!(f, "mean outage:          {:.0}s", self.mean_outage_secs)
    }
}

/// The paper's foundational observation, measured: "the daily patterns of
/// host workloads are comparable to those in the most recent days" (§1,
/// citing \[19\]). For each same-type day, correlates its hourly mean-load
/// profile against the mean profile of the *other* same-type days
/// (leave-one-out — the view the predictor actually has: one future day vs
/// pooled history), and returns the average correlation. `None` when fewer
/// than three comparable days exist.
#[must_use]
pub fn daily_pattern_similarity(
    trace: &crate::trace::MachineTrace,
    day_type: fgcs_core::window::DayType,
) -> Option<f64> {
    use fgcs_core::window::DayType;
    let per_day = trace.samples_per_day();
    let per_hour = per_day / 24;
    let mut profiles: Vec<Vec<f64>> = Vec::new();
    for d in 0..trace.days() {
        if DayType::of_day(trace.first_day_index + d) != day_type {
            continue;
        }
        let day = trace.day_samples(d);
        let profile: Vec<f64> = (0..24)
            .map(|h| {
                let hour = &day[h * per_hour..(h + 1) * per_hour];
                hour.iter().map(|s| s.host_cpu).sum::<f64>() / per_hour as f64
            })
            .collect();
        profiles.push(profile);
    }
    let n = profiles.len();
    if n < 3 {
        return None;
    }
    let mut correlations = Vec::new();
    for i in 0..n {
        // Mean profile of the other days.
        let mut reference = vec![0.0_f64; 24];
        for (j, p) in profiles.iter().enumerate() {
            if j == i {
                continue;
            }
            for (r, v) in reference.iter_mut().zip(p) {
                *r += v;
            }
        }
        for r in &mut reference {
            *r /= (n - 1) as f64;
        }
        if let Some(r) = fgcs_math::stats::pearson(&profiles[i], &reference) {
            correlations.push(r);
        }
    }
    (!correlations.is_empty()).then(|| fgcs_math::stats::mean(&correlations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgcs_core::log::{DayLog, StateLog};
    use State::*;

    #[test]
    fn stats_on_structured_log() {
        let mut store = HistoryStore::new();
        // Day: 4x S1, 2x S3, 2x S1, 2x S5 -> two occurrences (S3, S5),
        // 4 failure samples over 2 periods -> mean outage = 2 steps = 12s.
        store.push_day(DayLog::new(
            0,
            StateLog::new(6, vec![S1, S1, S1, S1, S3, S3, S1, S1, S5, S5]),
        ));
        let stats = TraceStats::from_history(&store);
        assert_eq!(stats.occurrences, 2);
        assert_eq!(stats.by_state, [1, 0, 1]);
        assert!((stats.mean_outage_secs - 12.0).abs() < 1e-12);
        assert!((stats.state_fractions[0] - 0.6).abs() < 1e-12);
        assert!((stats.availability_fraction() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_store_is_zeroes() {
        let stats = TraceStats::from_history(&HistoryStore::new());
        assert_eq!(stats.occurrences, 0);
        assert_eq!(stats.occurrences_per_day(), 0.0);
        assert_eq!(stats.mean_outage_secs, 0.0);
    }

    #[test]
    fn leading_failure_not_counted_as_occurrence() {
        let mut store = HistoryStore::new();
        store.push_day(DayLog::new(0, StateLog::new(6, vec![S5, S5, S1])));
        let stats = TraceStats::from_history(&store);
        assert_eq!(stats.occurrences, 0);
    }

    #[test]
    fn daily_patterns_repeat_on_generated_traces() {
        use crate::generator::{TraceConfig, TraceGenerator};
        use fgcs_core::window::DayType;
        let trace = TraceGenerator::new(TraceConfig::lab_machine(2006)).generate_days(28);
        let weekday = daily_pattern_similarity(&trace, DayType::Weekday).unwrap();
        // The prediction method's premise: a day correlates with the pooled
        // pattern of its peers.
        assert!(weekday > 0.4, "weekday similarity {weekday}");
        let weekend = daily_pattern_similarity(&trace, DayType::Weekend).unwrap();
        assert!(weekend > 0.2, "weekend similarity {weekend}");
    }

    #[test]
    fn similarity_none_for_single_day() {
        use crate::generator::{TraceConfig, TraceGenerator};
        use fgcs_core::window::DayType;
        let trace = TraceGenerator::new(TraceConfig::lab_machine(1)).generate_days(1);
        assert_eq!(daily_pattern_similarity(&trace, DayType::Weekend), None);
    }

    #[test]
    fn display_is_informative() {
        let mut store = HistoryStore::new();
        store.push_day(DayLog::new(0, StateLog::new(6, vec![S1, S3, S1])));
        let text = TraceStats::from_history(&store).to_string();
        assert!(text.contains("occurrences"));
        assert!(text.contains("S3"));
    }
}
