//! Machine archetypes: hourly activity curves and resource parameters.
//!
//! The paper's testbed was a student computer laboratory ("students from
//! different disciplines ... checking e-mails, editing files, and compiling
//! and testing class projects, which created highly diverse host
//! workloads"). [`student_lab`] models that environment; the two other
//! archetypes cover the future-work testbeds the paper names (§8):
//! enterprise desktops and heavily loaded compute servers.

use crate::revocation::RevocationConfig;
use crate::session::{BackgroundConfig, SessionConfig};

/// Static description of a machine class: how much hardware it has and how
/// its human users behave over the day.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineProfile {
    /// Human-readable archetype name.
    pub name: String,
    /// Physical memory in MB.
    pub physical_mem_mb: f64,
    /// Memory permanently used by the OS and daemons, in MB.
    pub base_mem_mb: f64,
    /// Expected interactive-session arrivals per hour on weekdays.
    pub weekday_activity: [f64; 24],
    /// Expected interactive-session arrivals per hour on weekends.
    pub weekend_activity: [f64; 24],
    /// Interactive-session behaviour.
    pub session: SessionConfig,
    /// Background system load (daemons, cron, monitoring).
    pub background: BackgroundConfig,
    /// Owner revocations and crashes.
    pub revocation: RevocationConfig,
}

impl MachineProfile {
    /// The activity curve for the given day type.
    #[must_use]
    pub fn activity(&self, weekend: bool) -> &[f64; 24] {
        if weekend {
            &self.weekend_activity
        } else {
            &self.weekday_activity
        }
    }
}

/// A Purdue-lab-style student machine: strong diurnal pattern, afternoon
/// peak, compile-heavy bursts, occasional console reboots.
#[must_use]
pub fn student_lab() -> MachineProfile {
    MachineProfile {
        name: "student-lab".into(),
        physical_mem_mb: 512.0,
        base_mem_mb: 140.0,
        weekday_activity: [
            0.07, 0.04, 0.03, 0.02, 0.02, 0.03, 0.06, 0.17, // 0-7
            0.46, 0.75, 0.88, 0.88, 0.72, 0.84, 1.00, 1.00, // 8-15
            0.92, 0.84, 0.67, 0.55, 0.46, 0.35, 0.24, 0.14, // 16-23
        ],
        weekend_activity: [
            0.07, 0.05, 0.03, 0.02, 0.02, 0.02, 0.04, 0.06, // 0-7
            0.10, 0.20, 0.32, 0.38, 0.38, 0.42, 0.46, 0.46, // 8-15
            0.42, 0.38, 0.35, 0.32, 0.28, 0.21, 0.14, 0.08, // 16-23
        ],
        session: SessionConfig::student(),
        background: BackgroundConfig::default(),
        revocation: RevocationConfig::lab(),
    }
}

/// An enterprise desktop: 9-to-5 usage by a single owner, lighter compile
/// load, machine mostly idle outside office hours, fewer reboots.
#[must_use]
pub fn enterprise_desktop() -> MachineProfile {
    MachineProfile {
        name: "enterprise-desktop".into(),
        physical_mem_mb: 1024.0,
        base_mem_mb: 220.0,
        weekday_activity: [
            0.02, 0.02, 0.02, 0.02, 0.02, 0.02, 0.05, 0.20, // 0-7
            0.90, 1.10, 1.00, 0.90, 0.60, 0.90, 1.00, 1.00, // 8-15
            0.90, 0.70, 0.30, 0.10, 0.05, 0.03, 0.02, 0.02, // 16-23
        ],
        weekend_activity: [
            0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.02, // 0-7
            0.05, 0.08, 0.10, 0.10, 0.08, 0.08, 0.08, 0.08, // 8-15
            0.08, 0.06, 0.05, 0.04, 0.03, 0.02, 0.01, 0.01, // 16-23
        ],
        session: SessionConfig::office(),
        background: BackgroundConfig::default(),
        revocation: RevocationConfig::office(),
    }
}

/// A shared compute server: flat, high utilisation around the clock with
/// long batch jobs — the hostile end of the spectrum for cycle stealing.
#[must_use]
pub fn compute_server() -> MachineProfile {
    MachineProfile {
        name: "compute-server".into(),
        physical_mem_mb: 2048.0,
        base_mem_mb: 300.0,
        weekday_activity: [
            0.6, 0.6, 0.6, 0.6, 0.6, 0.6, 0.7, 0.8, //
            1.0, 1.1, 1.1, 1.1, 1.0, 1.1, 1.1, 1.1, //
            1.0, 1.0, 0.9, 0.9, 0.8, 0.8, 0.7, 0.6,
        ],
        weekend_activity: [
            0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.6, //
            0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, //
            0.7, 0.7, 0.6, 0.6, 0.6, 0.6, 0.5, 0.5,
        ],
        session: SessionConfig::batch(),
        background: BackgroundConfig::default(),
        revocation: RevocationConfig::server(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn archetypes_have_sane_shapes() {
        for p in [student_lab(), enterprise_desktop(), compute_server()] {
            assert!(p.physical_mem_mb > p.base_mem_mb);
            assert!(p.weekday_activity.iter().all(|&a| a >= 0.0));
            assert!(p.weekend_activity.iter().all(|&a| a >= 0.0));
        }
    }

    #[test]
    fn lab_weekday_busier_than_weekend() {
        let p = student_lab();
        let wd: f64 = p.weekday_activity.iter().sum();
        let we: f64 = p.weekend_activity.iter().sum();
        assert!(wd > we, "weekday {wd} vs weekend {we}");
    }

    #[test]
    fn lab_afternoon_peak() {
        let p = student_lab();
        assert!(p.weekday_activity[14] > p.weekday_activity[3]);
    }

    #[test]
    fn activity_selector_picks_curve() {
        let p = student_lab();
        assert_eq!(p.activity(false), &p.weekday_activity);
        assert_eq!(p.activity(true), &p.weekend_activity);
    }
}
