//! Time windows, day types and calendar helpers.
//!
//! The predictor computes the temporal reliability for a *future time window*
//! `W = (W_init, T)` (paper §4.2), using the corresponding windows of the most
//! recent same-type days (weekday vs weekend) as the statistics source.

/// Seconds in one day.
pub const SECS_PER_DAY: u32 = 86_400;

/// Whether a day is a weekday or weekend day. The paper computes SMP
/// parameters only from days of the same type as the prediction target,
/// because host load patterns repeat within each class (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DayType {
    /// Monday–Friday.
    Weekday,
    /// Saturday–Sunday.
    Weekend,
}

impl DayType {
    /// Day type for a zero-based day index, where day 0 is a Monday.
    #[must_use]
    pub fn of_day(day_index: usize) -> DayType {
        if day_index % 7 < 5 {
            DayType::Weekday
        } else {
            DayType::Weekend
        }
    }

    /// Both day types.
    pub const ALL: [DayType; 2] = [DayType::Weekday, DayType::Weekend];
}

impl std::fmt::Display for DayType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DayType::Weekday => write!(f, "weekday"),
            DayType::Weekend => write!(f, "weekend"),
        }
    }
}

/// A within-day time window: a start offset from midnight and a length,
/// both in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeWindow {
    /// Seconds after midnight at which the window starts.
    pub start_secs: u32,
    /// Window length in seconds.
    pub len_secs: u32,
}

impl TimeWindow {
    /// Creates a window from a start offset and length in seconds.
    ///
    /// Windows may cross midnight once (the paper's Figure 5 sweeps start
    /// times up to 23:00 with lengths up to 10 hours), so the only
    /// constraints are that the start lies within the day and the window
    /// ends before the *following* midnight.
    ///
    /// # Panics
    /// Panics if the window is empty, starts outside the day, or spans more
    /// than one midnight.
    #[must_use]
    pub fn new(start_secs: u32, len_secs: u32) -> TimeWindow {
        assert!(len_secs > 0, "window must be non-empty");
        assert!(
            start_secs < SECS_PER_DAY,
            "window must start within the day"
        );
        // In u64: a length near `u32::MAX` would wrap the `u32` sum.
        let end = u64::from(start_secs) + u64::from(len_secs);
        assert!(
            end <= 2 * u64::from(SECS_PER_DAY),
            "window [{start_secs}, {end}) spans more than one midnight"
        );
        TimeWindow {
            start_secs,
            len_secs,
        }
    }

    /// `true` when the window extends past the midnight of its starting day.
    #[must_use]
    pub fn crosses_midnight(&self) -> bool {
        self.end_secs() > SECS_PER_DAY
    }

    /// Creates a window from fractional hours, e.g. `from_hours(8.0, 2.5)` is
    /// the window 08:00–10:30.
    ///
    /// # Panics
    /// Panics on negative values or windows crossing midnight.
    #[must_use]
    pub fn from_hours(start_hours: f64, len_hours: f64) -> TimeWindow {
        assert!(start_hours >= 0.0 && len_hours > 0.0);
        TimeWindow::new(
            (start_hours * 3600.0).round() as u32,
            (len_hours * 3600.0).round() as u32,
        )
    }

    /// End offset (exclusive) in seconds after midnight.
    #[must_use]
    pub fn end_secs(&self) -> u32 {
        self.start_secs + self.len_secs
    }

    /// Window length in fractional hours.
    #[must_use]
    pub fn len_hours(&self) -> f64 {
        f64::from(self.len_secs) / 3600.0
    }

    /// Number of discretisation steps `T/d` for a step of `step_secs`.
    ///
    /// # Panics
    /// Panics if `step_secs == 0`.
    #[must_use]
    pub fn steps(&self, step_secs: u32) -> usize {
        assert!(step_secs > 0);
        (self.len_secs / step_secs) as usize
    }

    /// Index of the first sample of this window in a day sampled every
    /// `step_secs` seconds.
    #[must_use]
    pub fn start_step(&self, step_secs: u32) -> usize {
        (self.start_secs / step_secs) as usize
    }
}

impl std::fmt::Display for TimeWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (sh, sm) = (self.start_secs / 3600, (self.start_secs % 3600) / 60);
        write!(f, "{:02}:{:02}+{:.2}h", sh, sm, self.len_hours())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_types_follow_week_structure() {
        // Day 0 = Monday ... day 4 = Friday, 5-6 weekend.
        for d in 0..5 {
            assert_eq!(DayType::of_day(d), DayType::Weekday);
        }
        assert_eq!(DayType::of_day(5), DayType::Weekend);
        assert_eq!(DayType::of_day(6), DayType::Weekend);
        assert_eq!(DayType::of_day(7), DayType::Weekday);
        assert_eq!(DayType::of_day(13), DayType::Weekend);
    }

    #[test]
    fn from_hours_matches_seconds() {
        let w = TimeWindow::from_hours(8.0, 2.0);
        assert_eq!(w.start_secs, 8 * 3600);
        assert_eq!(w.len_secs, 2 * 3600);
        assert_eq!(w.end_secs(), 10 * 3600);
        assert!((w.len_hours() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "spans more than one midnight")]
    fn a_length_that_wraps_u32_is_refused() {
        // 08:00 + u32::MAX seconds wraps a u32 sum to 07:59:59.
        let _ = TimeWindow::new(8 * 3600, u32::MAX);
    }

    #[test]
    fn steps_at_paper_resolution() {
        // 10-hour window at the paper's 6-second monitoring period.
        let w = TimeWindow::from_hours(0.0, 10.0);
        assert_eq!(w.steps(6), 6000);
        assert_eq!(w.start_step(6), 0);
        let w2 = TimeWindow::from_hours(9.0, 1.0);
        assert_eq!(w2.start_step(6), 5400);
    }

    #[test]
    fn window_may_cross_one_midnight() {
        let w = TimeWindow::from_hours(23.0, 10.0);
        assert!(w.crosses_midnight());
        assert!(!TimeWindow::from_hours(8.0, 10.0).crosses_midnight());
    }

    #[test]
    #[should_panic(expected = "more than one midnight")]
    fn window_past_two_midnights_panics() {
        let _ = TimeWindow::from_hours(23.0, 26.0);
    }

    #[test]
    #[should_panic(expected = "start within the day")]
    fn window_starting_next_day_panics() {
        let _ = TimeWindow::from_hours(25.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_window_panics() {
        let _ = TimeWindow::new(0, 0);
    }

    #[test]
    fn display_formats_start_time() {
        let w = TimeWindow::from_hours(8.5, 1.0);
        assert_eq!(w.to_string(), "08:30+1.00h");
    }
}
