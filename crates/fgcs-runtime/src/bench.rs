//! A tiny wall-clock micro-benchmark harness.
//!
//! Replaces `criterion` for the `fgcs-bench` bench targets (which are built
//! with `harness = false` behind the off-by-default `bench-harness`
//! feature). No statistics beyond min/median — the targets exist to expose
//! asymptotic differences (e.g. the Fig 4 solver comparison), not to detect
//! 1% regressions.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Re-export so benches can guard values without reaching into `std::hint`.
pub use std::hint::black_box as keep;

const TARGET_SAMPLE: Duration = Duration::from_millis(20);
const SAMPLES: usize = 11;

/// Times `f` and prints `name: <median> ns/iter (min <min>)`.
///
/// Runs a calibration pass to pick an iteration count that makes each
/// sample last roughly `TARGET_SAMPLE` (20 ms), then reports the median
/// over `SAMPLES` (11) samples.
pub fn bench<R>(name: &str, mut f: impl FnMut() -> R) {
    let m = measure(SAMPLES, TARGET_SAMPLE, &mut f);
    println!(
        "{name}: {} /iter (min {}, {} iters/sample)",
        fmt_ns(m.median_ns),
        fmt_ns(m.min_ns),
        m.iters
    );
}

/// The result of a bounded [`measure`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Median ns per iteration across the samples.
    pub median_ns: f64,
    /// Fastest sample's ns per iteration.
    pub min_ns: f64,
    /// Iterations per sample chosen by calibration.
    pub iters: u64,
}

/// Times `f` with a bounded budget and returns the per-iteration stats
/// instead of printing — the building block for both [`bench()`] and the
/// `fgcs-bench` smoke mode that emits `BENCH_baseline.json`.
///
/// A calibration pass doubles the iteration count until one batch lasts at
/// least `target_sample`, then `samples` timed batches are taken.
pub fn measure<R>(
    samples: usize,
    target_sample: Duration,
    f: &mut impl FnMut() -> R,
) -> Measurement {
    // Warm-up + calibration: double iters until a batch is long enough.
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        if start.elapsed() >= target_sample || iters >= 1 << 30 {
            break;
        }
        iters *= 2;
    }

    let mut timings: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    timings.sort_by(|a, b| a.total_cmp(b));
    Measurement {
        median_ns: timings[timings.len() / 2],
        min_ns: timings[0],
        iters,
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_prints() {
        // Cheap closure: the harness must terminate quickly and not panic.
        let mut acc = 0u64;
        bench("noop_add", || {
            acc = acc.wrapping_add(1);
            acc
        });
    }

    #[test]
    fn measure_returns_finite_positive_stats() {
        let mut acc = 0u64;
        let m = measure(3, Duration::from_micros(200), &mut || {
            acc = acc.wrapping_add(1);
            acc
        });
        assert!(m.median_ns.is_finite() && m.median_ns > 0.0);
        assert!(m.min_ns.is_finite() && m.min_ns > 0.0);
        assert!(m.min_ns <= m.median_ns);
        assert!(m.iters >= 1);
    }

    #[test]
    fn fmt_ns_units() {
        assert!(fmt_ns(12.3).contains("ns"));
        assert!(fmt_ns(12_300.0).contains("µs"));
        assert!(fmt_ns(12_300_000.0).contains("ms"));
        assert!(fmt_ns(2_300_000_000.0).contains(" s"));
    }
}
