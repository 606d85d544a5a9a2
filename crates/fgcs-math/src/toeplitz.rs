//! Levinson–Durbin recursion for symmetric Toeplitz (Yule–Walker) systems.
//!
//! The AR(p) baseline in `fgcs-timeseries` fits its coefficients from the
//! autocovariance sequence by solving the Yule–Walker equations
//! `R a = r`, where `R[i][j] = acov(|i-j|)` and `r[i] = acov(i+1)`.
//! Levinson–Durbin solves this in O(p²) instead of O(p³) and additionally
//! yields the innovation variance.

/// Result of the Levinson–Durbin recursion at the requested order.
#[derive(Debug, Clone, PartialEq)]
pub struct LevinsonResult {
    /// AR coefficients `a[0..p]` such that
    /// `x[t] ≈ a[0] x[t-1] + … + a[p-1] x[t-p]`.
    pub coeffs: Vec<f64>,
    /// Innovation (prediction error) variance at the final order.
    pub error_variance: f64,
}

/// Errors from [`levinson_durbin`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ToeplitzError {
    /// Not enough autocovariances supplied: need `order + 1` values.
    TooFewAutocovariances {
        /// Values required (`order + 1`).
        need: usize,
        /// Values supplied.
        got: usize,
    },
    /// The zero-lag autocovariance was non-positive (constant/empty series).
    DegenerateVariance,
}

impl std::fmt::Display for ToeplitzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ToeplitzError::TooFewAutocovariances { need, got } => {
                write!(f, "need {need} autocovariances, got {got}")
            }
            ToeplitzError::DegenerateVariance => {
                write!(f, "zero-lag autocovariance must be positive")
            }
        }
    }
}

impl std::error::Error for ToeplitzError {}

/// Solves the order-`p` Yule–Walker equations from the autocovariance
/// sequence `acov[0..=p]` using the Levinson–Durbin recursion.
///
/// `acov[k]` must be the lag-`k` autocovariance (or autocorrelation — the
/// coefficients are scale invariant, only `error_variance` changes).
pub fn levinson_durbin(acov: &[f64], order: usize) -> Result<LevinsonResult, ToeplitzError> {
    if acov.len() < order + 1 {
        return Err(ToeplitzError::TooFewAutocovariances {
            need: order + 1,
            got: acov.len(),
        });
    }
    if acov[0] <= 0.0 {
        return Err(ToeplitzError::DegenerateVariance);
    }
    let mut a = vec![0.0_f64; order];
    let mut err = acov[0];
    for m in 0..order {
        // Compute reflection coefficient k_m.
        let mut acc = acov[m + 1];
        for j in 0..m {
            acc -= a[j] * acov[m - j];
        }
        let k = if err.abs() < 1e-300 { 0.0 } else { acc / err };
        // Update coefficients: a_new[j] = a[j] - k * a[m-1-j]
        let mut new_a = a.clone();
        new_a[m] = k;
        for j in 0..m {
            new_a[j] = a[j] - k * a[m - 1 - j];
        }
        a = new_a;
        err *= 1.0 - k * k;
        if err < 0.0 {
            // Numerical guard: the theoretical error variance is non-negative.
            err = 0.0;
        }
    }
    Ok(LevinsonResult {
        coeffs: a,
        error_variance: err,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use crate::matrix::Matrix;

    #[test]
    fn order_one_recovers_lag1_autocorrelation() {
        let acov = [1.0, 0.5, 0.3];
        let r = levinson_durbin(&acov, 1).unwrap();
        assert!(approx_eq(r.coeffs[0], 0.5, 1e-12));
        assert!(approx_eq(r.error_variance, 1.0 - 0.25, 1e-12));
    }

    #[test]
    fn matches_dense_lu_solution() {
        // Autocovariance of a stationary process (positive definite Toeplitz).
        let acov = [2.0, 1.2, 0.7, 0.4, 0.2];
        let p = 4;
        let ld = levinson_durbin(&acov, p).unwrap();

        let mut r = Matrix::zeros(p, p);
        let mut rhs = vec![0.0; p];
        for i in 0..p {
            for j in 0..p {
                r[(i, j)] = acov[i.abs_diff(j)];
            }
            rhs[i] = acov[i + 1];
        }
        let dense = r.solve(&rhs).unwrap();
        for (l, d) in ld.coeffs.iter().zip(&dense) {
            assert!(approx_eq(*l, *d, 1e-9), "LD {l} vs LU {d}");
        }
    }

    #[test]
    fn known_ar2_process_is_recovered() {
        // For AR(2) x[t] = a1 x[t-1] + a2 x[t-2] + e, the Yule-Walker
        // autocovariances satisfy the recursion; build them forward and invert.
        let (a1, a2) = (0.6, -0.3);
        // rho(1) = a1 / (1 - a2), rho(2) = a1*rho(1) + a2
        let rho1 = a1 / (1.0 - a2);
        let rho2 = a1 * rho1 + a2;
        let rho3 = a1 * rho2 + a2 * rho1;
        let acov = [1.0, rho1, rho2, rho3];
        let r = levinson_durbin(&acov, 2).unwrap();
        assert!(approx_eq(r.coeffs[0], a1, 1e-10));
        assert!(approx_eq(r.coeffs[1], a2, 1e-10));
    }

    #[test]
    fn too_few_lags_is_error() {
        assert!(matches!(
            levinson_durbin(&[1.0, 0.4], 2),
            Err(ToeplitzError::TooFewAutocovariances { need: 3, got: 2 })
        ));
    }

    #[test]
    fn degenerate_variance_is_error() {
        assert!(matches!(
            levinson_durbin(&[0.0, 0.0], 1),
            Err(ToeplitzError::DegenerateVariance)
        ));
    }
}
