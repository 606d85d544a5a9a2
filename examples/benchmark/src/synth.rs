//! Seeded input synthesizer: one 14 400-sample availability day per
//! `(seed, host, day_index)`, written straight into the wire's digit
//! encoding (`'1'`–`'5'` for S1–S5).
//!
//! The PRNG and the day model live here rather than in `fgcs-trace` or
//! `fgcs_runtime::rng` so that a change to the program's own generators
//! never changes the benchmark's inputs. Only IEEE basic arithmetic is used
//! (no `ln`/`exp`), so the bytes are identical on every platform — the
//! golden digest test below pins them.
//!
//! Day model, per host (parameters drawn once per host, so no two hosts
//! share a kernel):
//! * an hour-of-day activity curve — a triangular bump around a per-host
//!   peak hour on weekdays, a flatter one at weekends;
//! * operational runs in S1 (light load) or S2 (heavy load), S2 more likely
//!   the busier the hour;
//! * S3/S4 bursts (CPU and memory contention) whose start probability
//!   rises with activity;
//! * rare S5 outages (machine revoked or powered off) lasting tens of
//!   minutes.

/// Samples per day at the paper's 6-second monitoring period.
pub const SAMPLES_PER_DAY: usize = 14_400;
const SAMPLES_PER_HOUR: usize = 600;

/// SplitMix64: a tiny, well-mixed 64-bit generator.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// A generator for one labelled sub-stream of `seed`; distinct
    /// `(seed, a, b)` triples give independent-looking streams.
    pub fn derive(seed: u64, a: u64, b: u64) -> SplitMix64 {
        let mut g = SplitMix64::new(seed ^ 0x5EED_BE4C_0000_0000);
        let x = g.next_u64() ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut g = SplitMix64::new(x);
        let y = g.next_u64() ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        SplitMix64::new(y)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// One host's day-model parameters.
#[derive(Debug, Clone, Copy)]
struct HostModel {
    peak_hour: f64,
    half_width: f64,
    weekend_level: f64,
    heavy_share: f64,
    burst_rate: f64,
    memory_share: f64,
    outage_rate: f64,
    op_run: u64,
}

impl HostModel {
    fn of(seed: u64, host: u64) -> HostModel {
        let mut g = SplitMix64::derive(seed, 1, host);
        HostModel {
            peak_hour: g.range(11.0, 16.0),
            half_width: g.range(3.0, 6.0),
            weekend_level: g.range(0.15, 0.45),
            heavy_share: g.range(0.3, 0.8),
            burst_rate: g.range(0.015, 0.06),
            memory_share: g.range(0.2, 0.5),
            outage_rate: g.range(0.0005, 0.002),
            op_run: 20 + g.below(60),
        }
    }

    /// Activity in `[0, 1]` at fractional hour `h`.
    fn activity(&self, h: f64, weekend: bool) -> f64 {
        let bump = (1.0 - (h - self.peak_hour).abs() / self.half_width).max(0.0);
        if weekend {
            0.05 + self.weekend_level * bump
        } else {
            0.05 + 0.95 * bump
        }
    }
}

/// Run length uniform in `[1, 2·mean − 1]`, with a one-in-eight chance of
/// a run four times as long (holding times in real traces are heavy-tailed).
fn run_length(g: &mut SplitMix64, mean: u64) -> usize {
    let mean = if g.below(8) == 0 { 4 * mean } else { mean };
    1 + g.below(2 * mean - 1) as usize
}

/// Appends host `host`'s day `day_index` as 14 400 state digits.
pub fn write_day(seed: u64, host: u64, day_index: u64, out: &mut Vec<u8>) {
    let model = HostModel::of(seed, host);
    let weekend = day_index % 7 >= 5;
    let mut g = SplitMix64::derive(seed, 2 + day_index, host);
    let mut t = 0usize;
    out.reserve(SAMPLES_PER_DAY);
    while t < SAMPLES_PER_DAY {
        let hour = (t / SAMPLES_PER_HOUR) as f64 + 0.5;
        let a = model.activity(hour, weekend);
        let u = g.unit();
        let burst = model.burst_rate * (0.2 + a);
        let (digit, len) = if u < model.outage_rate {
            (b'5', 30 + g.below(240) as usize)
        } else if u < model.outage_rate + burst {
            if g.unit() < model.memory_share {
                (b'4', run_length(&mut g, 120))
            } else {
                (b'3', run_length(&mut g, 20))
            }
        } else if g.unit() < 0.05 + 0.6 * a * model.heavy_share {
            (b'2', run_length(&mut g, model.op_run / 2 + 1))
        } else {
            (b'1', run_length(&mut g, model.op_run))
        };
        let len = len.min(SAMPLES_PER_DAY - t);
        out.resize(out.len() + len, digit);
        t += len;
    }
}

/// State mix (share of samples per state) and mean run length per state of
/// a digit-encoded sample stream.
pub fn state_stats(digits: &[u8]) -> ([f64; 5], [f64; 5]) {
    let mut samples = [0u64; 5];
    let mut runs = [0u64; 5];
    let mut prev = 0u8;
    for &d in digits {
        let i = usize::from(d - b'1');
        samples[i] += 1;
        if d != prev {
            runs[i] += 1;
            prev = d;
        }
    }
    let total = digits.len().max(1) as f64;
    let mix = samples.map(|n| n as f64 / total);
    let mut mean_run = [0.0; 5];
    for i in 0..5 {
        if runs[i] > 0 {
            mean_run[i] = samples[i] as f64 / runs[i] as f64;
        }
    }
    (mix, mean_run)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 64-bit FNV-1a.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// Changing this digest changes every workload's inputs: the baseline
    /// numbers in the README must then be measured again.
    const GOLDEN_SEED1_HOST0_DAY0: u64 = 0x1d23_7278_c568_ad84;

    #[test]
    fn golden_digest_of_seed_1_first_host_day() {
        let mut day = Vec::new();
        write_day(1, 0, 0, &mut day);
        assert_eq!(day.len(), SAMPLES_PER_DAY);
        assert!(day.iter().all(|d| (b'1'..=b'5').contains(d)));
        let digest = fnv1a(&day);
        assert_eq!(digest, GOLDEN_SEED1_HOST0_DAY0, "digest {digest:#018x}");
    }

    #[test]
    fn days_differ_across_hosts_days_and_seeds() {
        let day = |seed, host, d| {
            let mut v = Vec::new();
            write_day(seed, host, d, &mut v);
            fnv1a(&v)
        };
        let base = day(1, 0, 0);
        assert_ne!(base, day(1, 1, 0));
        assert_ne!(base, day(1, 0, 1));
        assert_ne!(base, day(2, 0, 0));
        assert_eq!(base, day(1, 0, 0));
    }

    #[test]
    fn weekdays_are_busier_than_weekends() {
        let failures = |d: u64| -> f64 {
            (0..16)
                .map(|host| {
                    let mut v = Vec::new();
                    write_day(3, host, d, &mut v);
                    let (mix, _) = state_stats(&v);
                    mix[1] + mix[2] + mix[3]
                })
                .sum()
        };
        assert!(failures(0) > failures(5));
    }
}
