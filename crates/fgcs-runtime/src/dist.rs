//! The handful of distributions the synthetic trace generator samples from.
//!
//! Each sampler is generic over [`Rng`] and derives every variate from
//! [`Rng::next_f64`] in a fixed order, so a given generator state always
//! yields the same sample on every platform.

use crate::rng::Rng;

/// Samples an exponential variate with the given `rate` (λ > 0).
///
/// # Panics
/// Panics if `rate <= 0`.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0, "exponential rate must be positive");
    // Inverse CDF; 1 - u in (0, 1] avoids ln(0).
    let u = rng.next_f64();
    -(1.0 - u).max(f64::MIN_POSITIVE).ln() / rate
}

/// Samples a standard normal variate via Box–Muller.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1 = rng.next_f64();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2 = rng.next_f64();
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}

/// Samples `N(mean, std²)`.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64) -> f64 {
    mean + std * standard_normal(rng)
}

/// Samples a normal variate truncated to `[lo, hi]` by rejection, falling
/// back to clamping after 64 rejections (only reachable for extreme bounds).
///
/// # Panics
/// Panics if `lo > hi`.
pub fn truncated_normal<R: Rng + ?Sized>(
    rng: &mut R,
    mean: f64,
    std: f64,
    lo: f64,
    hi: f64,
) -> f64 {
    assert!(lo <= hi, "truncated_normal requires lo <= hi");
    for _ in 0..64 {
        let x = normal(rng, mean, std);
        if (lo..=hi).contains(&x) {
            return x;
        }
    }
    normal(rng, mean, std).clamp(lo, hi)
}

/// Samples a lognormal variate with the given *log-space* mean and std.
pub fn lognormal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// Samples a Pareto variate with scale `xm > 0` and shape `alpha > 0`
/// (heavy-tailed durations such as long-running host sessions).
///
/// # Panics
/// Panics if `xm <= 0` or `alpha <= 0`.
pub fn pareto<R: Rng + ?Sized>(rng: &mut R, xm: f64, alpha: f64) -> f64 {
    assert!(
        xm > 0.0 && alpha > 0.0,
        "pareto parameters must be positive"
    );
    let u = rng.next_f64();
    xm / (1.0 - u).max(f64::MIN_POSITIVE).powf(1.0 / alpha)
}

/// Samples a Poisson variate with mean `lambda` (Knuth's algorithm for
/// small λ, normal approximation above 30 where Knuth's product underflows
/// in time linear in λ).
///
/// # Panics
/// Panics if `lambda < 0`.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    assert!(lambda >= 0.0, "poisson mean must be non-negative");
    if lambda == 0.0 {
        return 0;
    }
    if lambda > 30.0 {
        // Normal approximation with continuity correction.
        let x = normal(rng, lambda, lambda.sqrt());
        return x.round().max(0.0) as u64;
    }
    let threshold = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.next_f64();
        if p <= threshold {
            return k;
        }
        k += 1;
    }
}

/// Samples uniformly from `[lo, hi)`; returns `lo` when the range is empty.
pub fn uniform<R: Rng + ?Sized>(rng: &mut R, lo: f64, hi: f64) -> f64 {
    if hi <= lo {
        return lo;
    }
    rng.range_f64(lo, hi)
}

/// Returns `true` with probability `p` (clamped to `[0, 1]`).
pub fn bernoulli<R: Rng + ?Sized>(rng: &mut R, p: f64) -> bool {
    let p = p.clamp(0.0, 1.0);
    if p <= 0.0 {
        false
    } else if p >= 1.0 {
        true
    } else {
        rng.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    fn rng() -> Xoshiro256 {
        Xoshiro256::seed_from_u64(42)
    }

    /// Mean and population standard deviation of `n` draws.
    fn moments(n: usize, mut draw: impl FnMut() -> f64) -> (f64, f64) {
        let xs: Vec<f64> = (0..n).map(|_| draw()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        (mean, var.sqrt())
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut r = rng();
        let mut min = f64::INFINITY;
        let (mean, _) = moments(20_000, || {
            let x = exponential(&mut r, 2.0);
            min = min.min(x);
            x
        });
        // Mean of Exp(2) is 0.5.
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        assert!(min >= 0.0);
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let (mean, std) = moments(20_000, || normal(&mut r, 3.0, 2.0));
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((std - 2.0).abs() < 0.05, "std {std}");
    }

    #[test]
    fn truncated_normal_respects_bounds() {
        let mut r = rng();
        for _ in 0..5_000 {
            let x = truncated_normal(&mut r, 0.0, 5.0, -1.0, 1.0);
            assert!((-1.0..=1.0).contains(&x), "out of bounds: {x}");
        }
    }

    #[test]
    fn truncated_normal_degenerate_interval() {
        let mut r = rng();
        let x = truncated_normal(&mut r, 100.0, 1.0, 2.0, 2.0);
        assert_eq!(x, 2.0);
    }

    #[test]
    fn lognormal_is_positive() {
        let mut r = rng();
        for _ in 0..5_000 {
            assert!(lognormal(&mut r, 0.0, 1.5) > 0.0);
        }
    }

    #[test]
    fn pareto_respects_scale() {
        let mut r = rng();
        for _ in 0..5_000 {
            assert!(pareto(&mut r, 3.0, 2.5) >= 3.0);
        }
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = rng();
        assert!(!bernoulli(&mut r, 0.0));
        assert!(bernoulli(&mut r, 1.0));
        assert!(!bernoulli(&mut r, -0.5));
        assert!(bernoulli(&mut r, 1.5));
    }

    #[test]
    fn bernoulli_frequency() {
        let mut r = rng();
        let hits = (0..20_000).filter(|_| bernoulli(&mut r, 0.3)).count();
        let freq = hits as f64 / 20_000.0;
        assert!((freq - 0.3).abs() < 0.02, "freq {freq}");
    }

    #[test]
    fn uniform_empty_range_returns_lo() {
        let mut r = rng();
        assert_eq!(uniform(&mut r, 5.0, 5.0), 5.0);
        assert_eq!(uniform(&mut r, 5.0, 4.0), 5.0);
    }

    #[test]
    fn poisson_mean_small_lambda() {
        let mut r = rng();
        let (mean, _) = moments(20_000, || poisson(&mut r, 3.5) as f64);
        assert!((mean - 3.5).abs() < 0.06, "mean {mean}");
    }

    #[test]
    fn poisson_mean_large_lambda() {
        let mut r = rng();
        let (mean, _) = moments(20_000, || poisson(&mut r, 100.0) as f64);
        assert!((mean - 100.0).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn poisson_zero_lambda() {
        let mut r = rng();
        assert_eq!(poisson(&mut r, 0.0), 0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = rng();
        let mut b = rng();
        for _ in 0..100 {
            assert_eq!(exponential(&mut a, 1.0), exponential(&mut b, 1.0));
        }
    }
}
