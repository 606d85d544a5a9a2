//! The trace synthesis engine: composes sessions, background load and
//! revocations into whole machine-days of monitor samples.
//!
//! Generation is fully deterministic from `(seed, machine_id)` so that every
//! experiment in the repository is reproducible bit-for-bit.

use fgcs_runtime::rng::{Rng, Xoshiro256};

use fgcs_core::model::LoadSample;
use fgcs_core::window::DayType;
use fgcs_runtime::dist;

use crate::profile::{self, MachineProfile};
use crate::session::Session;
use crate::trace::MachineTrace;

/// Configuration of one machine's trace generation.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Machine identifier (also perturbs the RNG stream).
    pub machine_id: u64,
    /// Base seed shared by a whole experiment.
    pub seed: u64,
    /// The machine archetype.
    pub profile: MachineProfile,
    /// Monitoring period in seconds.
    pub step_secs: u32,
    /// Calendar anchor: index of the first generated day (0 = Monday).
    pub first_day_index: usize,
    /// Per-day multiplier noise (log-space sigma) applied to the activity
    /// curve, modelling day-to-day variation around the repeating pattern.
    pub day_noise_sigma: f64,
}

impl TraceConfig {
    /// A student-lab machine (the paper's testbed class).
    #[must_use]
    pub fn lab_machine(seed: u64) -> TraceConfig {
        TraceConfig {
            machine_id: 0,
            seed,
            profile: profile::student_lab(),
            step_secs: 6,
            first_day_index: 0,
            day_noise_sigma: 0.12,
        }
    }

    /// An enterprise desktop machine (§8 future-work testbed).
    #[must_use]
    pub fn enterprise_machine(seed: u64) -> TraceConfig {
        TraceConfig {
            profile: profile::enterprise_desktop(),
            ..TraceConfig::lab_machine(seed)
        }
    }

    /// A shared compute server.
    #[must_use]
    pub fn server_machine(seed: u64) -> TraceConfig {
        TraceConfig {
            profile: profile::compute_server(),
            ..TraceConfig::lab_machine(seed)
        }
    }

    /// Sets the machine id (also decorrelates the random stream).
    #[must_use]
    pub fn with_machine_id(mut self, id: u64) -> TraceConfig {
        self.machine_id = id;
        self
    }
}

/// Generates [`MachineTrace`]s from a [`TraceConfig`].
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    cfg: TraceConfig,
}

impl TraceGenerator {
    /// Wraps a configuration.
    #[must_use]
    pub fn new(cfg: TraceConfig) -> TraceGenerator {
        TraceGenerator { cfg }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &TraceConfig {
        &self.cfg
    }

    /// Generates `days` whole machine-days.
    ///
    /// ```
    /// use fgcs_trace::{TraceConfig, TraceGenerator};
    ///
    /// let trace = TraceGenerator::new(TraceConfig::lab_machine(42)).generate_days(2);
    /// assert_eq!(trace.days(), 2);
    /// assert_eq!(trace.samples.len(), 2 * 14_400); // 6-second sampling
    /// ```
    #[must_use]
    pub fn generate_days(&self, days: usize) -> MachineTrace {
        let cfg = &self.cfg;
        let mut rng = self.rng();
        let step = cfg.step_secs;
        let day_steps = (fgcs_core::window::SECS_PER_DAY / step) as usize;
        let mut samples = Vec::with_capacity(days * day_steps);
        for d in 0..days {
            let day_index = cfg.first_day_index + d;
            self.generate_day_into(&mut rng, day_index, &mut samples);
        }
        fgcs_runtime::counter_add!("trace.gen.calls", 1);
        fgcs_runtime::counter_add!("trace.gen.days", days as u64);
        fgcs_runtime::counter_add!("trace.gen.samples", samples.len() as u64);
        MachineTrace {
            machine_id: cfg.machine_id,
            step_secs: step,
            first_day_index: cfg.first_day_index,
            physical_mem_mb: cfg.profile.physical_mem_mb,
            samples,
        }
    }

    /// The deterministic RNG stream for this (seed, machine).
    fn rng(&self) -> Xoshiro256 {
        // SplitMix-style mixing keeps machine streams decorrelated.
        let mix = self
            .cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.cfg.machine_id.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        Xoshiro256::seed_from_u64(mix)
    }

    /// Generates one day's samples and appends them to `out`.
    fn generate_day_into(&self, rng: &mut Xoshiro256, day_index: usize, out: &mut Vec<LoadSample>) {
        let cfg = &self.cfg;
        let step = cfg.step_secs;
        let day_steps = (fgcs_core::window::SECS_PER_DAY / step) as usize;
        let steps_per_hour = (3600 / step) as usize;
        let weekend = DayType::of_day(day_index) == DayType::Weekend;
        let activity = cfg.profile.activity(weekend);

        // Day-level multiplier: the pattern repeats, with noise.
        let day_factor = dist::lognormal(rng, 0.0, cfg.day_noise_sigma);

        let mut cpu = vec![0.0_f64; day_steps];
        let mut mem = vec![cfg.profile.base_mem_mb; day_steps];

        // Interactive sessions: inhomogeneous Poisson arrivals by hour.
        for (hour, &rate) in activity.iter().enumerate() {
            let n = dist::poisson(rng, rate * day_factor);
            fgcs_runtime::counter_add!("trace.gen.sessions", n);
            for _ in 0..n {
                let start = hour * steps_per_hour + rng.range_usize(0, steps_per_hour);
                if start >= day_steps {
                    continue;
                }
                let session = Session::sample(rng, &cfg.profile.session, start, day_steps, step);
                for (i, &c) in session.cpu.iter().enumerate() {
                    cpu[session.start_step + i] += c;
                }
                for m in &mut mem[session.start_step..session.end_step] {
                    *m += session.mem_mb;
                }
            }
        }

        // Background daemons and transient spikes.
        cfg.profile.background.apply(rng, &mut cpu, step);

        // Revocation outages.
        let outages = cfg
            .profile
            .revocation
            .sample_outages(rng, activity, day_steps, step);
        fgcs_runtime::counter_add!("trace.gen.outages", outages.len() as u64);
        let mut alive = vec![true; day_steps];
        for (start, len) in outages {
            for a in &mut alive[start..start + len] {
                *a = false;
            }
        }

        let physical = cfg.profile.physical_mem_mb;
        out.extend((0..day_steps).map(|i| {
            if alive[i] {
                LoadSample {
                    host_cpu: cpu[i].min(1.0),
                    free_mem_mb: (physical - mem[i]).max(0.0),
                    alive: true,
                }
            } else {
                LoadSample::revoked()
            }
        }));
    }
}

/// Generates a fleet of traces sharing one seed, one per machine id.
#[must_use]
pub fn generate_cluster(base: &TraceConfig, machines: usize, days: usize) -> Vec<MachineTrace> {
    (0..machines as u64)
        .map(|id| TraceGenerator::new(base.clone().with_machine_id(id)).generate_days(days))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgcs_core::model::AvailabilityModel;

    #[test]
    fn generation_is_deterministic() {
        let cfg = TraceConfig::lab_machine(11);
        let a = TraceGenerator::new(cfg.clone()).generate_days(2);
        let b = TraceGenerator::new(cfg).generate_days(2);
        assert_eq!(a, b);
    }

    #[test]
    fn different_machines_differ() {
        let cfg = TraceConfig::lab_machine(11);
        let a = TraceGenerator::new(cfg.clone().with_machine_id(0)).generate_days(1);
        let b = TraceGenerator::new(cfg.with_machine_id(1)).generate_days(1);
        assert_ne!(a.samples, b.samples);
    }

    #[test]
    fn samples_are_physical() {
        let t = TraceGenerator::new(TraceConfig::lab_machine(5)).generate_days(3);
        for s in &t.samples {
            assert!((0.0..=1.0).contains(&s.host_cpu));
            assert!(s.free_mem_mb >= 0.0);
            assert!(s.free_mem_mb <= t.physical_mem_mb);
        }
        assert_eq!(t.days(), 3);
    }

    #[test]
    fn weekday_busier_than_weekend() {
        // Average over a full generated fortnight.
        let t = TraceGenerator::new(TraceConfig::lab_machine(42)).generate_days(14);
        let per_day = t.samples_per_day();
        let mut wd = (0.0, 0usize);
        let mut we = (0.0, 0usize);
        for d in 0..14 {
            let mean: f64 =
                t.day_samples(d).iter().map(|s| s.host_cpu).sum::<f64>() / per_day as f64;
            if DayType::of_day(d) == DayType::Weekday {
                wd = (wd.0 + mean, wd.1 + 1);
            } else {
                we = (we.0 + mean, we.1 + 1);
            }
        }
        assert!(
            wd.0 / wd.1 as f64 > we.0 / we.1 as f64,
            "weekday load should exceed weekend load"
        );
    }

    #[test]
    fn afternoon_busier_than_night() {
        let t = TraceGenerator::new(TraceConfig::lab_machine(42)).generate_days(10);
        let per_hour = 600usize;
        let mut night = 0.0;
        let mut afternoon = 0.0;
        for d in 0..10 {
            if DayType::of_day(d) == DayType::Weekend {
                continue;
            }
            let day = t.day_samples(d);
            night += day[3 * per_hour..4 * per_hour]
                .iter()
                .map(|s| s.host_cpu)
                .sum::<f64>();
            afternoon += day[14 * per_hour..15 * per_hour]
                .iter()
                .map(|s| s.host_cpu)
                .sum::<f64>();
        }
        assert!(afternoon > night, "afternoon {afternoon} vs night {night}");
    }

    #[test]
    fn trace_produces_all_failure_classes() {
        use fgcs_core::state::State;
        let t = TraceGenerator::new(TraceConfig::lab_machine(1)).generate_days(30);
        let history = t.to_history(&AvailabilityModel::default()).unwrap();
        let mut seen = [false; 5];
        for day in history.days() {
            for &(s, _) in day.log.runs() {
                seen[s.index()] = true;
            }
        }
        assert!(seen[State::S1.index()], "no S1 in 30 days");
        assert!(seen[State::S2.index()], "no S2 in 30 days");
        assert!(seen[State::S3.index()], "no S3 in 30 days");
        assert!(seen[State::S5.index()], "no S5 in 30 days");
        // S4 is rarer; it is asserted over longer horizons in the
        // calibration integration test.
    }

    #[test]
    fn cluster_generates_distinct_machines() {
        let cfg = TraceConfig::lab_machine(9);
        let cluster = generate_cluster(&cfg, 3, 1);
        assert_eq!(cluster.len(), 3);
        assert_eq!(cluster[0].machine_id, 0);
        assert_eq!(cluster[2].machine_id, 2);
        assert_ne!(cluster[0].samples, cluster[1].samples);
    }
}
