//! Owner revocations and machine crashes (URR, state S5).
//!
//! On the paper's testbed, "resource revocation happens when the user with
//! access to a machine's console does not wish to share the machine with
//! remote users, and simply reboots the machine" (§6.1) — so revocations
//! correlate with human presence. Crashes add a small time-uniform
//! component.

use fgcs_runtime::rng::Rng;

use fgcs_runtime::dist;

/// Parameters of the revocation process for one machine archetype.
#[derive(Debug, Clone, PartialEq)]
pub struct RevocationConfig {
    /// Expected console-reboot revocations per day (scaled by the activity
    /// curve, so they cluster in busy hours).
    pub reboots_per_day: f64,
    /// Expected crashes per day (uniform over the day).
    pub crashes_per_day: f64,
    /// Log-space mean of the outage duration (seconds).
    pub outage_log_mean: f64,
    /// Log-space std of the outage duration.
    pub outage_log_sigma: f64,
}

impl RevocationConfig {
    /// Student lab: frequent console reboots (median outage ≈ 6 min).
    #[must_use]
    pub fn lab() -> RevocationConfig {
        RevocationConfig {
            reboots_per_day: 0.62,
            crashes_per_day: 0.13,
            outage_log_mean: 5.9,
            outage_log_sigma: 0.9,
        }
    }

    /// Office desktop: owner shuts the lid occasionally.
    #[must_use]
    pub fn office() -> RevocationConfig {
        RevocationConfig {
            reboots_per_day: 0.30,
            crashes_per_day: 0.05,
            outage_log_mean: 7.2, // median ≈ 22 min
            outage_log_sigma: 1.0,
        }
    }

    /// Server: rare crashes, no console user.
    #[must_use]
    pub fn server() -> RevocationConfig {
        RevocationConfig {
            reboots_per_day: 0.02,
            crashes_per_day: 0.05,
            outage_log_mean: 6.6,
            outage_log_sigma: 0.8,
        }
    }

    /// Samples the day's outage intervals as `(start_step, len_steps)`
    /// pairs, truncated at the day end. `activity` weights the reboot
    /// component by hour.
    pub fn sample_outages<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        activity: &[f64; 24],
        day_steps: usize,
        step_secs: u32,
    ) -> Vec<(usize, usize)> {
        let mut outages = Vec::new();
        let steps_per_hour = (3600 / step_secs) as usize;

        // Console reboots: Poisson count, hours weighted by activity.
        let n_reboots = dist::poisson(rng, self.reboots_per_day);
        let total_activity: f64 = activity.iter().sum();
        for _ in 0..n_reboots {
            let hour = if total_activity > 0.0 {
                let mut x = dist::uniform(rng, 0.0, total_activity);
                let mut h = 23;
                for (i, &a) in activity.iter().enumerate() {
                    if x < a {
                        h = i;
                        break;
                    }
                    x -= a;
                }
                h
            } else {
                rng.range_usize(0, 24)
            };
            let start =
                (hour * steps_per_hour + rng.range_usize(0, steps_per_hour)).min(day_steps - 1);
            outages.push((start, self.sample_len(rng, step_secs)));
        }

        // Crashes: uniform over the day.
        let n_crashes = dist::poisson(rng, self.crashes_per_day);
        for _ in 0..n_crashes {
            let start = rng.range_usize(0, day_steps);
            outages.push((start, self.sample_len(rng, step_secs)));
        }

        for (start, len) in &mut outages {
            *len = (*len).min(day_steps - *start);
        }
        outages.sort_unstable();
        outages
    }

    fn sample_len<R: Rng + ?Sized>(&self, rng: &mut R, step_secs: u32) -> usize {
        let secs = dist::lognormal(rng, self.outage_log_mean, self.outage_log_sigma);
        ((secs / f64::from(step_secs)).ceil() as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgcs_runtime::rng::Xoshiro256;

    #[test]
    fn outages_fit_within_day() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let cfg = RevocationConfig::lab();
        let activity = [1.0; 24];
        for _ in 0..200 {
            for (start, len) in cfg.sample_outages(&mut rng, &activity, 14_400, 6) {
                assert!(start < 14_400);
                assert!(start + len <= 14_400);
                assert!(len >= 1);
            }
        }
    }

    #[test]
    fn outage_rate_roughly_matches_config() {
        let mut rng = Xoshiro256::seed_from_u64(4);
        let cfg = RevocationConfig::lab();
        let activity = [1.0; 24];
        let mut total = 0usize;
        let days = 2000;
        for _ in 0..days {
            total += cfg.sample_outages(&mut rng, &activity, 14_400, 6).len();
        }
        let per_day = total as f64 / days as f64;
        let expected = cfg.reboots_per_day + cfg.crashes_per_day;
        assert!(
            (per_day - expected).abs() < 0.1,
            "observed {per_day} vs configured {expected}"
        );
    }

    #[test]
    fn reboots_cluster_in_active_hours() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let cfg = RevocationConfig {
            reboots_per_day: 5.0,
            crashes_per_day: 0.0,
            ..RevocationConfig::lab()
        };
        // Activity only in hour 14.
        let mut activity = [0.0; 24];
        activity[14] = 1.0;
        let steps_per_hour = 600;
        for _ in 0..50 {
            for (start, _) in cfg.sample_outages(&mut rng, &activity, 14_400, 6) {
                let hour = start / steps_per_hour;
                assert_eq!(hour, 14, "reboot outside the active hour");
            }
        }
    }

    #[test]
    fn server_has_few_revocations() {
        let mut rng = Xoshiro256::seed_from_u64(6);
        let cfg = RevocationConfig::server();
        let activity = [1.0; 24];
        let mut total = 0;
        for _ in 0..1000 {
            total += cfg.sample_outages(&mut rng, &activity, 14_400, 6).len();
        }
        assert!((total as f64 / 1000.0) < 0.2);
    }
}
