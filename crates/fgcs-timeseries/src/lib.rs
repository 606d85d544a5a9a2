#![warn(missing_docs)]
//! # fgcs-timeseries
//!
//! The linear time-series baselines the paper compares its SMP predictor
//! against (§6.2, Table 1; originally from the RPS toolkit):
//!
//! | model | description |
//! |-------|-------------|
//! | [`ar::ArModel`]     | autoregressive, fitted by Yule–Walker |
//! | [`bm::BmModel`]     | mean over the previous ≤ p values |
//! | [`ma::MaModel`]     | moving average, fitted by Hannan–Rissanen |
//! | [`arma::ArmaModel`] | autoregressive moving average |
//! | [`last::LastModel`] | last measured value |
//!
//! All models implement [`model::TimeSeriesModel`]: fit on a history series
//! and forecast multiple steps ahead. [`eval`] hosts the window-survival
//! evaluation protocol used for the Figure 7 comparison.

pub mod ar;
pub mod arma;
pub mod bm;
pub mod eval;
pub mod last;
pub mod ma;
pub mod model;

pub use ar::ArModel;
pub use arma::ArmaModel;
pub use bm::BmModel;
pub use eval::{evaluate_ts_window, forecast_survives, severity_series, ts_day_cases, TsDayCase};
pub use last::LastModel;
pub use ma::MaModel;
pub use model::{TimeSeriesModel, TsError};

/// The five baseline models at the paper's orders (p = q = 8), boxed behind
/// the common trait — the exact lineup of Figure 7.
#[must_use]
pub fn paper_lineup() -> Vec<Box<dyn TimeSeriesModel>> {
    vec![
        Box::new(ArModel::new(8)),
        Box::new(BmModel::new(8)),
        Box::new(MaModel::new(8)),
        Box::new(ArmaModel::new(8, 8)),
        Box::new(LastModel),
    ]
}
