//! AR(p): autoregressive model fitted with Yule–Walker / Levinson–Durbin.

use fgcs_math::stats;
use fgcs_math::toeplitz;

use crate::model::{centre, TimeSeriesModel, TsError};

/// The AR(p) baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArModel {
    /// Model order `p` (the paper's comparison uses 8).
    pub order: usize,
}

impl ArModel {
    /// Creates an AR model of the given order.
    ///
    /// # Panics
    /// Panics if `order == 0`.
    #[must_use]
    pub fn new(order: usize) -> ArModel {
        assert!(order > 0, "AR order must be positive");
        ArModel { order }
    }
}

/// A fitted AR model: `x[t] - μ ≈ Σ_j a_j (x[t-j] - μ)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ArFit {
    /// Series mean `μ`.
    pub mean: f64,
    /// AR coefficients `a_1..a_p`.
    pub coeffs: Vec<f64>,
}

/// Fits AR(p) by Yule–Walker. Falls back to zero coefficients (a pure mean
/// model) when the series is constant or shorter than the order requires.
#[must_use]
pub fn fit_ar(series: &[f64], order: usize) -> ArFit {
    let (mean, centred) = centre(series);
    let usable = order.min(centred.len().saturating_sub(1));
    if usable == 0 {
        return ArFit {
            mean,
            coeffs: vec![0.0; order],
        };
    }
    let acov = stats::autocovariance(&centred, usable);
    match toeplitz::levinson_durbin(&acov, usable) {
        Ok(ld) => {
            let mut coeffs = ld.coeffs;
            coeffs.resize(order, 0.0);
            ArFit { mean, coeffs }
        }
        Err(_) => ArFit {
            mean,
            coeffs: vec![0.0; order],
        },
    }
}

impl ArFit {
    /// Recursive multi-step-ahead forecast from the end of `series`:
    /// forecasts feed back in as lagged values for longer horizons.
    #[must_use]
    pub fn forecast(&self, series: &[f64], steps: usize) -> Vec<f64> {
        let p = self.coeffs.len();
        // Work in centred space over a rolling lag buffer, newest first.
        let mut lags: Vec<f64> = series.iter().rev().take(p).map(|x| x - self.mean).collect();
        lags.resize(p, 0.0);
        let mut out = Vec::with_capacity(steps);
        for _ in 0..steps {
            let next: f64 = self.coeffs.iter().zip(&lags).map(|(a, x)| a * x).sum();
            out.push(next + self.mean);
            if p > 0 {
                lags.rotate_right(1);
                lags[0] = next;
            }
        }
        out
    }
}

impl TimeSeriesModel for ArModel {
    fn name(&self) -> String {
        format!("AR({})", self.order)
    }

    fn fit_forecast(&self, series: &[f64], steps: usize) -> Result<Vec<f64>, TsError> {
        if series.is_empty() {
            return Err(TsError::EmptySeries);
        }
        Ok(fit_ar(series, self.order).forecast(series, steps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_series_forecasts_constant() {
        let series = vec![0.3; 50];
        let f = ArModel::new(8).fit_forecast(&series, 10).unwrap();
        for v in f {
            assert!((v - 0.3).abs() < 1e-9);
        }
    }

    #[test]
    fn ar1_process_coefficient_recovered() {
        // Deterministic AR(1)-like damped oscillation around 0.5.
        let a = 0.8;
        let mut series = vec![0.5 + 0.4];
        for _ in 0..500 {
            let prev = *series.last().unwrap() - 0.5;
            series.push(0.5 + a * prev);
        }
        // A deterministic decaying series converges to the mean; the fitted
        // coefficient should be close to the generator's.
        let fit = fit_ar(&series, 1);
        assert!((fit.coeffs[0] - a).abs() < 0.1, "coeff {}", fit.coeffs[0]);
    }

    #[test]
    fn ar_tracks_noisy_ar_process() {
        use fgcs_runtime::rng::{Rng, Xoshiro256};
        let mut rng = Xoshiro256::seed_from_u64(1);
        let a = 0.7;
        let mut series = vec![0.0];
        for _ in 0..2000 {
            let e: f64 = rng.next_f64() - 0.5;
            let prev = *series.last().unwrap();
            series.push(a * prev + 0.1 * e);
        }
        let fit = fit_ar(&series, 4);
        assert!((fit.coeffs[0] - a).abs() < 0.1, "a1 = {}", fit.coeffs[0]);
        // Remaining coefficients should be small.
        for &c in &fit.coeffs[1..] {
            assert!(c.abs() < 0.15, "spurious coeff {c}");
        }
    }

    #[test]
    fn multi_step_forecast_decays_to_mean() {
        let fit = ArFit {
            mean: 2.0,
            coeffs: vec![0.5],
        };
        let f = fit.forecast(&[2.0, 2.0, 3.0], 30);
        // 1-step: 2 + 0.5*(3-2) = 2.5; decays geometrically to the mean.
        assert!((f[0] - 2.5).abs() < 1e-12);
        assert!((f[1] - 2.25).abs() < 1e-12);
        assert!((f[29] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn series_shorter_than_order_falls_back_to_mean() {
        let f = ArModel::new(8).fit_forecast(&[1.0, 3.0], 5).unwrap();
        // Fallback may still use the single usable lag; all values finite
        // and pulled towards the mean of 2.0.
        for v in f {
            assert!(v.is_finite());
        }
    }

    #[test]
    fn empty_series_is_error() {
        assert_eq!(
            ArModel::new(8).fit_forecast(&[], 5),
            Err(TsError::EmptySeries)
        );
    }

    #[test]
    #[should_panic(expected = "order must be positive")]
    fn zero_order_panics() {
        let _ = ArModel::new(0);
    }

    #[test]
    fn name_includes_order() {
        assert_eq!(ArModel::new(8).name(), "AR(8)");
    }
}
