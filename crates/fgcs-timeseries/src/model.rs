//! The common interface of the linear time-series baselines (paper Table 1).
//!
//! The paper compares the SMP predictor against the linear models of the
//! RPS toolkit: AR(p), BM(p), MA(p), ARMA(p, q) and LAST, all used for
//! multiple-step-ahead forecasting of host load. Each model here implements
//! one operation — fit to a history series and forecast a horizon beyond
//! its end — because that is exactly what the §7.2.1 comparison requires.

/// Errors produced by the time-series models.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TsError {
    /// The history series was empty — nothing can be forecast.
    EmptySeries,
}

impl std::fmt::Display for TsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TsError::EmptySeries => write!(f, "cannot fit a model to an empty series"),
        }
    }
}

impl std::error::Error for TsError {}

/// A linear time-series forecaster.
///
/// Implementations degrade gracefully on short or constant histories
/// (falling back to a mean forecast) rather than failing — on real monitor
/// data both situations are routine (an idle machine produces a constant
/// load series) and the §7.2.1 experiment sweeps thousands of windows.
pub trait TimeSeriesModel {
    /// Display name including the order, e.g. `AR(8)`.
    fn name(&self) -> String;

    /// Fits the model to `series` and returns forecasts for horizons
    /// `1..=steps` beyond its end.
    fn fit_forecast(&self, series: &[f64], steps: usize) -> Result<Vec<f64>, TsError>;
}

/// Subtracts the mean, returning `(mean, centred series)`.
pub(crate) fn centre(series: &[f64]) -> (f64, Vec<f64>) {
    let mean = fgcs_math::stats::mean(series);
    (mean, series.iter().map(|x| x - mean).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centre_removes_mean() {
        let (m, c) = centre(&[1.0, 2.0, 3.0]);
        assert_eq!(m, 2.0);
        assert_eq!(c, vec![-1.0, 0.0, 1.0]);
    }

    #[test]
    fn errors_display() {
        assert!(TsError::EmptySeries.to_string().contains("empty"));
    }
}
