//! Shared harness utilities for the experiment binaries that regenerate
//! the paper's tables and figures (see DESIGN.md §4 for the index).

use fgcs_core::log::HistoryStore;
use fgcs_core::model::AvailabilityModel;
use fgcs_core::predictor::{evaluate_window, SmpPredictor, WindowEvaluation};
use fgcs_core::window::{DayType, TimeWindow};
use fgcs_trace::{generate_cluster, MachineTrace, TraceConfig};

/// The window lengths (hours) the paper's accuracy figures sweep.
pub const WINDOW_HOURS: [f64; 5] = [1.0, 2.0, 3.0, 5.0, 10.0];

/// Standard experiment fixture: a fleet of lab machines with their
/// classified histories.
pub struct Testbed {
    /// The raw traces (for the time-series baselines, which need load
    /// values rather than states).
    pub traces: Vec<MachineTrace>,
    /// Classified history per machine.
    pub histories: Vec<HistoryStore>,
    /// The availability model used throughout.
    pub model: AvailabilityModel,
}

impl Testbed {
    /// Generates the standard testbed: `machines` student-lab machines over
    /// `days` days, seeded deterministically.
    #[must_use]
    pub fn generate(seed: u64, machines: usize, days: usize) -> Testbed {
        Testbed::generate_profile(seed, machines, days, "lab")
    }

    /// Generates a testbed of the named machine archetype — "lab",
    /// "enterprise" or "server" (the §8 future-work testbeds).
    ///
    /// # Panics
    /// Panics on an unknown profile name.
    #[must_use]
    pub fn generate_profile(seed: u64, machines: usize, days: usize, profile: &str) -> Testbed {
        let model = AvailabilityModel::default();
        let cfg = match profile {
            "lab" => TraceConfig::lab_machine(seed),
            "enterprise" => TraceConfig::enterprise_machine(seed),
            "server" => TraceConfig::server_machine(seed),
            other => panic!("unknown profile `{other}` (lab|enterprise|server)"),
        };
        let traces = generate_cluster(&cfg, machines, days);
        let histories = traces
            .iter()
            .map(|t| t.to_history(&model).expect("trace/model step match"))
            .collect();
        Testbed {
            traces,
            histories,
            model,
        }
    }
}

/// Summary of relative errors over a sweep (the avg / min / max bars of
/// Figure 5).
#[derive(Debug, Clone, Copy, Default)]
pub struct ErrorSummary {
    /// Mean relative error.
    pub avg: f64,
    /// Smallest observed error.
    pub min: f64,
    /// Largest observed error.
    pub max: f64,
    /// Number of (window, machine) evaluations with a defined error.
    pub n: usize,
}

/// Aggregates defined relative errors.
#[must_use]
pub fn summarize_errors(errors: &[f64]) -> ErrorSummary {
    if errors.is_empty() {
        return ErrorSummary::default();
    }
    ErrorSummary {
        avg: fgcs_math::stats::mean(errors),
        min: fgcs_math::stats::min(errors).unwrap_or(0.0),
        max: fgcs_math::stats::max(errors).unwrap_or(0.0),
        n: errors.len(),
    }
}

/// Evaluates the SMP predictor for one machine and window on a train/test
/// split, returning the evaluation if the error metric is defined.
#[must_use]
pub fn smp_error(
    predictor: &SmpPredictor,
    train: &HistoryStore,
    test: &HistoryStore,
    day_type: DayType,
    window: TimeWindow,
) -> Option<(WindowEvaluation, f64)> {
    let eval = evaluate_window(predictor, train, test, day_type, window).ok()?;
    let err = eval.relative_error()?;
    Some((eval, err))
}

/// Runs `f` over machine indices on worker threads and collects the
/// per-machine outputs in machine order. Used to parallelise the window
/// sweeps (each machine's evaluation is independent); guaranteed to return
/// exactly what the sequential `(0..machines).map(f).collect()` would.
pub fn per_machine<T: Send, F: Fn(usize) -> T + Sync>(machines: usize, f: F) -> Vec<T> {
    fgcs_runtime::parallel::par_map_indexed(machines, f)
}

/// Formats a fraction as a percentage with one decimal.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// `--metrics-out PATH` support for the experiment binaries: construct one
/// at the top of `main` and keep it alive; if the flag is present in the
/// process arguments the metrics registry is enabled for the run and its
/// JSON snapshot is written to PATH when the guard drops.
pub struct MetricsExport {
    path: Option<String>,
}

impl MetricsExport {
    /// Parses `--metrics-out` from [`std::env::args`].
    #[must_use]
    pub fn from_args() -> MetricsExport {
        let args: Vec<String> = std::env::args().collect();
        let path = args
            .iter()
            .position(|a| a == "--metrics-out")
            .and_then(|i| args.get(i + 1))
            .cloned();
        if path.is_some() {
            fgcs_runtime::metrics::set_enabled(true);
        }
        MetricsExport { path }
    }
}

impl Drop for MetricsExport {
    fn drop(&mut self) {
        if let Some(path) = self.path.take() {
            let json = fgcs_runtime::metrics::registry()
                .snapshot()
                .to_json()
                .to_string();
            if let Err(e) = std::fs::write(&path, json + "\n") {
                eprintln!("warning: could not write metrics to {path}: {e}");
            } else {
                eprintln!("metrics snapshot written to {path}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_generates_consistently() {
        let tb = Testbed::generate(1, 2, 7);
        assert_eq!(tb.traces.len(), 2);
        assert_eq!(tb.histories.len(), 2);
        assert_eq!(tb.histories[0].len(), 7);
    }

    #[test]
    fn summarize_handles_empty() {
        let s = summarize_errors(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.avg, 0.0);
    }

    #[test]
    fn summarize_basic() {
        let s = summarize_errors(&[0.1, 0.3]);
        assert!((s.avg - 0.2).abs() < 1e-12);
        assert_eq!(s.min, 0.1);
        assert_eq!(s.max, 0.3);
        assert_eq!(s.n, 2);
    }

    #[test]
    fn per_machine_preserves_order() {
        let out = per_machine(8, |i| i * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.1234), "12.3%");
    }
}
