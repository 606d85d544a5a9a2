//! Descriptive statistics.
//!
//! Everything the experiment harness reports (means, min/max bars, quantiles)
//! and everything the estimators consume (autocovariance) lives here.

/// Arithmetic mean; `0.0` for an empty slice.
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance; `0.0` for slices shorter than 2.
#[must_use]
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Minimum value; `None` for an empty slice.
#[must_use]
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().fold(None, |acc, x| {
        Some(match acc {
            None => x,
            Some(m) => m.min(x),
        })
    })
}

/// Maximum value; `None` for an empty slice.
#[must_use]
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().fold(None, |acc, x| {
        Some(match acc {
            None => x,
            Some(m) => m.max(x),
        })
    })
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) of unsorted data.
/// Returns `None` for empty input.
#[must_use]
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = pos - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Biased (divide-by-n) sample autocovariance for lags `0..=max_lag`.
///
/// The divide-by-n convention keeps the implied Toeplitz matrix positive
/// semi-definite, which Levinson–Durbin requires.
#[must_use]
pub fn autocovariance(xs: &[f64], max_lag: usize) -> Vec<f64> {
    let n = xs.len();
    let m = mean(xs);
    let mut out = Vec::with_capacity(max_lag + 1);
    for lag in 0..=max_lag {
        if lag >= n {
            out.push(0.0);
            continue;
        }
        let mut acc = 0.0;
        for t in lag..n {
            acc += (xs[t] - m) * (xs[t - lag] - m);
        }
        out.push(acc / n as f64);
    }
    out
}

/// Pearson correlation coefficient of two equal-length samples; `None` for
/// mismatched lengths, fewer than two points, or zero variance.
#[must_use]
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn mean_variance_basics() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!(approx_eq(mean(&xs), 5.0, 1e-12));
        assert!(approx_eq(variance(&xs), 4.0, 1e-12));
    }

    #[test]
    fn empty_slices_are_safe() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(min(&[]), None);
        assert_eq!(max(&[]), None);
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!(approx_eq(quantile(&xs, 0.0).unwrap(), 1.0, 1e-12));
        assert!(approx_eq(quantile(&xs, 1.0).unwrap(), 4.0, 1e-12));
        assert!(approx_eq(quantile(&xs, 0.5).unwrap(), 2.5, 1e-12));
    }

    #[test]
    fn autocovariance_lag_zero_is_variance() {
        let xs = [1.0, 3.0, 2.0, 5.0, 4.0];
        let acov = autocovariance(&xs, 2);
        assert!(approx_eq(acov[0], variance(&xs), 1e-12));
    }

    #[test]
    fn autocovariance_lags_beyond_len_are_zero() {
        let xs = [1.0, 2.0];
        let acov = autocovariance(&xs, 4);
        assert_eq!(acov.len(), 5);
        assert_eq!(acov[3], 0.0);
        assert_eq!(acov[4], 0.0);
    }

    #[test]
    fn pearson_basics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        assert!((pearson(&xs, &neg).unwrap() + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&xs, &[1.0, 1.0, 1.0, 1.0]), None); // zero variance
        assert_eq!(pearson(&xs, &ys[..3]), None); // length mismatch
        assert_eq!(pearson(&[1.0], &[2.0]), None); // too short
    }
}
