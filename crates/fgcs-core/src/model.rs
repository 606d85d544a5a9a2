//! Configuration of the availability model: the two empirically derived CPU
//! load thresholds, the transient-spike tolerance, the monitoring period and
//! the memory requirement of a guest job (paper §3).

use fgcs_runtime::impl_json_struct;

/// Parameters of the five-state availability model.
///
/// The defaults are the values used on the paper's Linux testbed:
/// `Th1 = 20 %`, `Th2 = 60 %` host CPU load, a 6-second monitoring period,
/// and a 1-minute tolerance for transient excursions above `Th2` (§3.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvailabilityModel {
    /// `Th1`: host CPU load below which the guest may run at default
    /// priority (fraction in `[0, 1]`).
    pub th1: f64,
    /// `Th2`: host CPU load above which a guest at any priority causes
    /// noticeable slowdown and must be terminated (fraction in `[0, 1]`).
    pub th2: f64,
    /// Resource monitoring / discretisation period `d` in seconds.
    pub monitor_period_secs: u32,
    /// Excursions above `Th2` shorter than this are treated as transient:
    /// the guest is merely suspended, and the samples are folded into the
    /// surrounding operational state (§3.3: "last less than 1 minute").
    pub transient_tolerance_secs: u32,
    /// Memory (MB) a guest job's working set needs; when free memory drops
    /// below it the machine is in S4 (memory thrashing).
    pub guest_working_set_mb: f64,
    /// Heartbeat gap (seconds) beyond which the machine is declared revoked
    /// (S5). The paper compares the current time with the last monitor
    /// timestamp (§5.2); three missed periods is the conventional choice.
    pub heartbeat_gap_secs: u32,
}

impl Default for AvailabilityModel {
    fn default() -> Self {
        AvailabilityModel {
            th1: 0.20,
            th2: 0.60,
            monitor_period_secs: 6,
            transient_tolerance_secs: 60,
            guest_working_set_mb: 100.0,
            heartbeat_gap_secs: 18,
        }
    }
}

impl AvailabilityModel {
    /// Validates the configuration, returning a description of the first
    /// violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.th1) {
            return Err(format!("th1 must be in [0,1], got {}", self.th1));
        }
        if !(0.0..=1.0).contains(&self.th2) {
            return Err(format!("th2 must be in [0,1], got {}", self.th2));
        }
        if self.th1 >= self.th2 {
            return Err(format!(
                "th1 ({}) must be below th2 ({})",
                self.th1, self.th2
            ));
        }
        if self.monitor_period_secs == 0 {
            return Err("monitor period must be positive".into());
        }
        if self.guest_working_set_mb < 0.0 {
            return Err("guest working set must be non-negative".into());
        }
        Ok(())
    }

    /// Transient tolerance expressed in monitoring steps (rounded down).
    #[must_use]
    pub fn transient_tolerance_steps(&self) -> usize {
        (self.transient_tolerance_secs / self.monitor_period_secs) as usize
    }

    /// Number of samples in one day at the monitoring period.
    #[must_use]
    pub fn samples_per_day(&self) -> usize {
        (crate::window::SECS_PER_DAY / self.monitor_period_secs) as usize
    }
}

/// One observation from the resource monitor: everything the classifier
/// needs to assign an availability state (paper §5.2 — obtainable without
/// special privileges).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSample {
    /// Total CPU usage of all host processes, as a fraction in `[0, 1]`.
    pub host_cpu: f64,
    /// Free physical memory in MB.
    pub free_mem_mb: f64,
    /// Whether the monitor heartbeat was current (false ⇒ machine revoked).
    pub alive: bool,
}

impl_json_struct!(LoadSample {
    host_cpu,
    free_mem_mb,
    alive,
});

impl LoadSample {
    /// An idle, healthy machine.
    #[must_use]
    pub fn idle(free_mem_mb: f64) -> LoadSample {
        LoadSample {
            host_cpu: 0.0,
            free_mem_mb,
            alive: true,
        }
    }

    /// A revoked machine (load/memory readings are meaningless).
    #[must_use]
    pub fn revoked() -> LoadSample {
        LoadSample {
            host_cpu: 0.0,
            free_mem_mb: 0.0,
            alive: false,
        }
    }

    /// Whether the readings are physically plausible: a finite CPU load in
    /// `[0, 1]` and finite, non-negative free memory. Real monitors emit
    /// NaN/±inf/out-of-range values under contention; the threshold
    /// comparisons in the classifier would silently misfile such garbage
    /// (NaN fails every `>` test and classifies as idle), so insane samples
    /// must be repaired *before* classification.
    #[must_use]
    pub fn is_sane(&self) -> bool {
        self.host_cpu.is_finite()
            && (0.0..=1.0).contains(&self.host_cpu)
            && self.free_mem_mb.is_finite()
            && self.free_mem_mb >= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_testbed() {
        let m = AvailabilityModel::default();
        assert_eq!(m.th1, 0.20);
        assert_eq!(m.th2, 0.60);
        assert_eq!(m.monitor_period_secs, 6);
        assert_eq!(m.transient_tolerance_secs, 60);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn samples_per_day_at_six_seconds() {
        assert_eq!(AvailabilityModel::default().samples_per_day(), 14_400);
    }

    #[test]
    fn transient_tolerance_steps_is_ten() {
        assert_eq!(AvailabilityModel::default().transient_tolerance_steps(), 10);
    }

    #[test]
    fn validation_rejects_inverted_thresholds() {
        let m = AvailabilityModel {
            th1: 0.7,
            th2: 0.6,
            ..AvailabilityModel::default()
        };
        assert!(m.validate().is_err());
    }

    #[test]
    fn validation_rejects_out_of_range() {
        let m = AvailabilityModel {
            th1: -0.1,
            ..AvailabilityModel::default()
        };
        assert!(m.validate().is_err());
        let m = AvailabilityModel {
            th2: 1.5,
            ..AvailabilityModel::default()
        };
        assert!(m.validate().is_err());
        let m = AvailabilityModel {
            monitor_period_secs: 0,
            ..AvailabilityModel::default()
        };
        assert!(m.validate().is_err());
    }

    #[test]
    fn sample_constructors() {
        let s = LoadSample::idle(512.0);
        assert!(s.alive);
        assert_eq!(s.host_cpu, 0.0);
        let r = LoadSample::revoked();
        assert!(!r.alive);
    }

    #[test]
    fn sanity_check_rejects_garbage_readings() {
        assert!(LoadSample::idle(512.0).is_sane());
        assert!(LoadSample::revoked().is_sane());
        let nan = LoadSample {
            host_cpu: f64::NAN,
            ..LoadSample::idle(512.0)
        };
        assert!(!nan.is_sane());
        let inf_mem = LoadSample {
            free_mem_mb: f64::INFINITY,
            ..LoadSample::idle(512.0)
        };
        assert!(!inf_mem.is_sane());
        let over = LoadSample {
            host_cpu: 1.5,
            ..LoadSample::idle(512.0)
        };
        assert!(!over.is_sane());
        let neg_mem = LoadSample {
            free_mem_mb: -1.0,
            ..LoadSample::idle(512.0)
        };
        assert!(!neg_mem.is_sane());
    }
}
