//! Stochastic interactive sessions and background system load.
//!
//! A session is one human (or batch job) using the machine: it arrives,
//! holds some memory for its lifetime, and drives the CPU through an
//! alternating sequence of activity *segments* (idle ↔ editing ↔ command
//! running ↔ compiling). Heavy segments that outlast the model's transient
//! tolerance are what produce genuine S3 (CPU unavailability) periods;
//! short background spikes exercise the transient-folding path instead.

use fgcs_runtime::rng::Rng;

use fgcs_runtime::dist;

/// Parameters of interactive sessions for one machine archetype.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfig {
    /// Log-space mean of the session duration (seconds).
    pub duration_log_mean: f64,
    /// Log-space std of the session duration.
    pub duration_log_sigma: f64,
    /// Mean resident memory of a session (MB).
    pub mem_mean_mb: f64,
    /// Std of session memory (MB).
    pub mem_sigma_mb: f64,
    /// Probability that a session is a memory hog (editor with huge files,
    /// local simulation): its memory is drawn from the hog range instead.
    pub mem_hog_prob: f64,
    /// Memory range of a hog session (MB).
    pub mem_hog_range: (f64, f64),
    /// Probability weights of the four activity levels
    /// `[idle, light, medium, heavy]`; needs not be normalised.
    pub level_weights: [f64; 4],
    /// Mean dwell time (seconds) of each activity level.
    pub level_dwell_secs: [f64; 4],
}

impl SessionConfig {
    /// Student-lab sessions: bursty, compile-heavy.
    #[must_use]
    pub fn student() -> SessionConfig {
        SessionConfig {
            duration_log_mean: 7.6, // median ≈ 33 min
            duration_log_sigma: 0.8,
            mem_mean_mb: 80.0,
            mem_sigma_mb: 35.0,
            mem_hog_prob: 0.02,
            mem_hog_range: (260.0, 400.0),
            level_weights: [0.47, 0.32, 0.20, 0.015],
            level_dwell_secs: [150.0, 120.0, 95.0, 130.0],
        }
    }

    /// Office sessions: mostly light interactive work.
    #[must_use]
    pub fn office() -> SessionConfig {
        SessionConfig {
            duration_log_mean: 8.3, // median ≈ 67 min
            duration_log_sigma: 0.7,
            mem_mean_mb: 130.0,
            mem_sigma_mb: 50.0,
            mem_hog_prob: 0.03,
            mem_hog_range: (350.0, 600.0),
            level_weights: [0.56, 0.30, 0.13, 0.008],
            level_dwell_secs: [180.0, 140.0, 110.0, 120.0],
        }
    }

    /// Batch jobs on a compute server: long and CPU-bound.
    #[must_use]
    pub fn batch() -> SessionConfig {
        SessionConfig {
            duration_log_mean: 8.9, // median ≈ 2 h
            duration_log_sigma: 0.9,
            mem_mean_mb: 250.0,
            mem_sigma_mb: 120.0,
            mem_hog_prob: 0.10,
            mem_hog_range: (500.0, 900.0),
            level_weights: [0.10, 0.15, 0.30, 0.45],
            level_dwell_secs: [120.0, 150.0, 300.0, 600.0],
        }
    }
}

/// CPU ranges of the four activity levels (fractions of one CPU).
const LEVEL_CPU: [(f64, f64); 4] = [
    (0.01, 0.07), // idle: shell prompt, mail client polling
    (0.08, 0.20), // light: editing, browsing
    (0.22, 0.50), // medium: command pipelines, tests
    (0.62, 0.98), // heavy: compiles, local simulations
];

/// One generated session, already discretised to monitor steps.
#[derive(Debug, Clone, PartialEq)]
pub struct Session {
    /// First monitor step the session is active in.
    pub start_step: usize,
    /// One past the last active step (clamped to the day length).
    pub end_step: usize,
    /// Resident memory the session holds while active (MB).
    pub mem_mb: f64,
    /// Per-step CPU demand over `[start_step, end_step)`.
    pub cpu: Vec<f64>,
}

impl Session {
    /// Samples a session starting at `start_step`, truncated to
    /// `day_steps`, at a monitor period of `step_secs` seconds.
    pub fn sample<R: Rng + ?Sized>(
        rng: &mut R,
        cfg: &SessionConfig,
        start_step: usize,
        day_steps: usize,
        step_secs: u32,
    ) -> Session {
        let duration_secs = dist::lognormal(rng, cfg.duration_log_mean, cfg.duration_log_sigma);
        let steps = ((duration_secs / f64::from(step_secs)).ceil() as usize).max(1);
        let end_step = (start_step + steps).min(day_steps);
        let mem_mb = if dist::bernoulli(rng, cfg.mem_hog_prob) {
            dist::uniform(rng, cfg.mem_hog_range.0, cfg.mem_hog_range.1)
        } else {
            dist::truncated_normal(rng, cfg.mem_mean_mb, cfg.mem_sigma_mb, 20.0, 500.0)
        };

        let mut cpu = Vec::with_capacity(end_step.saturating_sub(start_step));
        while cpu.len() < end_step - start_step {
            let level = pick_level(rng, &cfg.level_weights);
            let (lo, hi) = LEVEL_CPU[level];
            let demand = dist::uniform(rng, lo, hi);
            let dwell_secs = dist::exponential(rng, 1.0 / cfg.level_dwell_secs[level]);
            let dwell_steps = ((dwell_secs / f64::from(step_secs)).ceil() as usize).max(1);
            for _ in 0..dwell_steps {
                if cpu.len() >= end_step - start_step {
                    break;
                }
                cpu.push(demand);
            }
        }
        Session {
            start_step,
            end_step,
            mem_mb,
            cpu,
        }
    }
}

/// Picks an index proportionally to `weights`.
fn pick_level<R: Rng + ?Sized>(rng: &mut R, weights: &[f64; 4]) -> usize {
    let total: f64 = weights.iter().sum();
    let mut x = dist::uniform(rng, 0.0, total);
    for (i, &w) in weights.iter().enumerate() {
        if x < w {
            return i;
        }
        x -= w;
    }
    3
}

/// Background system load: a slowly varying daemon baseline plus short
/// transient spikes (cron jobs, remote X starts — the paper's §3.3 examples
/// of loads that exceed `Th2` for a few seconds only).
#[derive(Debug, Clone, PartialEq)]
pub struct BackgroundConfig {
    /// Baseline CPU range the daemons wander in.
    pub base_cpu_range: (f64, f64),
    /// Seconds between redraws of the baseline level.
    pub base_redraw_secs: f64,
    /// Expected transient spikes per hour.
    pub spikes_per_hour: f64,
    /// Spike duration range in seconds (kept below the transient tolerance
    /// so spikes exercise folding rather than causing S3).
    pub spike_secs_range: (f64, f64),
    /// Spike CPU range.
    pub spike_cpu_range: (f64, f64),
}

impl Default for BackgroundConfig {
    fn default() -> Self {
        BackgroundConfig {
            base_cpu_range: (0.01, 0.06),
            base_redraw_secs: 600.0,
            spikes_per_hour: 1.5,
            spike_secs_range: (6.0, 48.0),
            spike_cpu_range: (0.68, 1.0),
        }
    }
}

impl BackgroundConfig {
    /// Adds the background load onto `cpu` (one entry per monitor step).
    pub fn apply<R: Rng + ?Sized>(&self, rng: &mut R, cpu: &mut [f64], step_secs: u32) {
        let n = cpu.len();
        if n == 0 {
            return;
        }
        // Baseline: piecewise constant, redrawn every base_redraw_secs.
        let redraw_steps = ((self.base_redraw_secs / f64::from(step_secs)).ceil() as usize).max(1);
        let mut level = dist::uniform(rng, self.base_cpu_range.0, self.base_cpu_range.1);
        for (i, c) in cpu.iter_mut().enumerate() {
            if i % redraw_steps == 0 {
                level = dist::uniform(rng, self.base_cpu_range.0, self.base_cpu_range.1);
            }
            *c += level;
        }
        // Transient spikes: Poisson over the whole span.
        let span_hours = n as f64 * f64::from(step_secs) / 3600.0;
        let spikes = dist::poisson(rng, self.spikes_per_hour * span_hours);
        for _ in 0..spikes {
            let at = rng.range_usize(0, n);
            let secs = dist::uniform(rng, self.spike_secs_range.0, self.spike_secs_range.1);
            let len = ((secs / f64::from(step_secs)).ceil() as usize).max(1);
            let boost = dist::uniform(rng, self.spike_cpu_range.0, self.spike_cpu_range.1);
            for c in cpu.iter_mut().skip(at).take(len) {
                *c += boost;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgcs_runtime::rng::Xoshiro256;

    fn rng() -> Xoshiro256 {
        Xoshiro256::seed_from_u64(7)
    }

    #[test]
    fn session_cpu_length_matches_span() {
        let mut r = rng();
        let cfg = SessionConfig::student();
        let s = Session::sample(&mut r, &cfg, 100, 14_400, 6);
        assert_eq!(s.cpu.len(), s.end_step - s.start_step);
        assert!(s.start_step == 100);
        assert!(s.end_step <= 14_400);
    }

    #[test]
    fn session_truncates_at_day_end() {
        let mut r = rng();
        let cfg = SessionConfig::batch(); // long sessions
        let s = Session::sample(&mut r, &cfg, 14_000, 14_400, 6);
        assert!(s.end_step <= 14_400);
    }

    #[test]
    fn session_cpu_levels_in_range() {
        let mut r = rng();
        let cfg = SessionConfig::student();
        for _ in 0..20 {
            let s = Session::sample(&mut r, &cfg, 0, 14_400, 6);
            for &c in &s.cpu {
                assert!((0.0..=1.0).contains(&c), "cpu {c}");
            }
            assert!(s.mem_mb >= 20.0 && s.mem_mb <= 500.0, "mem {}", s.mem_mb);
        }
    }

    #[test]
    fn student_sessions_contain_heavy_segments() {
        let mut r = rng();
        let cfg = SessionConfig::student();
        let mut saw_heavy = false;
        for _ in 0..50 {
            let s = Session::sample(&mut r, &cfg, 0, 14_400, 6);
            if s.cpu.iter().any(|&c| c > 0.6) {
                saw_heavy = true;
                break;
            }
        }
        assert!(saw_heavy, "no heavy segment in 50 student sessions");
    }

    #[test]
    fn background_adds_baseline_everywhere() {
        let mut r = rng();
        let cfg = BackgroundConfig::default();
        let mut cpu = vec![0.0; 1000];
        cfg.apply(&mut r, &mut cpu, 6);
        assert!(cpu.iter().all(|&c| c >= cfg.base_cpu_range.0));
    }

    #[test]
    fn background_spikes_are_short() {
        // At the default spike rate, spikes rarely overlap, so every
        // above-Th2 run stays below the 60 s transient tolerance. The fixed
        // seed makes this deterministic.
        let mut r = rng();
        let cfg = BackgroundConfig::default();
        let mut cpu = vec![0.0; 60_000]; // 100 hours
        cfg.apply(&mut r, &mut cpu, 6);
        let mut run = 0usize;
        let mut spikes = 0usize;
        let mut short = 0usize;
        for &c in &cpu {
            if c > 0.6 {
                run += 1;
            } else {
                if run > 0 {
                    spikes += 1;
                    if run < 10 {
                        short += 1;
                    }
                }
                run = 0;
            }
        }
        assert!(spikes > 50, "expected many spikes, saw {spikes}");
        // Occasional overlaps of two spikes may exceed the tolerance, but
        // the overwhelming majority must stay transient.
        assert!(
            short as f64 >= 0.9 * spikes as f64,
            "{short}/{spikes} spikes short"
        );
    }

    #[test]
    fn background_on_empty_slice_is_noop() {
        let mut r = rng();
        let cfg = BackgroundConfig::default();
        let mut cpu: Vec<f64> = vec![];
        cfg.apply(&mut r, &mut cpu, 6);
        assert!(cpu.is_empty());
    }

    #[test]
    fn pick_level_respects_zero_weights() {
        let mut r = rng();
        for _ in 0..100 {
            let l = pick_level(&mut r, &[0.0, 1.0, 0.0, 0.0]);
            assert_eq!(l, 1);
        }
    }
}
