#![warn(missing_docs)]
//! # fgcs-math
//!
//! Small, dependency-free numerics used throughout the FGCS workspace:
//!
//! * [`matrix`] — row-major dense matrices with LU factorisation and solves,
//! * [`toeplitz`] — the Levinson–Durbin recursion for Yule–Walker systems,
//! * [`lsq`] — regularised linear least squares,
//! * [`stats`] — descriptive statistics, autocovariance.
//!
//! Rust's time-series/statistics ecosystem is thin compared to what the paper's
//! authors had available (RPS, MATLAB); this crate implements exactly the
//! primitives the estimators in `fgcs-core` and `fgcs-timeseries` need, with
//! property-tested equivalences (e.g. Levinson–Durbin vs. a dense LU solve).

pub mod lsq;
pub mod matrix;
pub mod stats;
pub mod toeplitz;

pub use matrix::Matrix;

/// Returns `true` when `a` and `b` agree within an absolute-or-relative
/// tolerance of `tol`. Suitable for test assertions on computed quantities.
#[must_use]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    diff <= tol || diff <= tol * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9));
        assert!(!approx_eq(1.0, 1.1, 1e-9));
    }

    #[test]
    fn approx_eq_relative_for_large_magnitudes() {
        assert!(approx_eq(1e12, 1e12 + 1.0, 1e-9));
        assert!(!approx_eq(1e12, 1.1e12, 1e-9));
    }

    #[test]
    fn approx_eq_handles_zero() {
        assert!(approx_eq(0.0, 0.0, 1e-9));
        assert!(approx_eq(0.0, 1e-10, 1e-9));
        assert!(!approx_eq(0.0, 1e-3, 1e-9));
    }
}
