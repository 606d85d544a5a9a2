//! Shared harness utilities for the experiment binaries that regenerate
//! the paper's tables and figures (see DESIGN.md §4 for the index).

use std::str::FromStr;

use fgcs_core::classify::StateClassifier;
use fgcs_core::log::{DayLog, HistoryStore, StateLog};
use fgcs_core::model::AvailabilityModel;
use fgcs_core::predictor::WindowEvaluation;
use fgcs_core::window::TimeWindow;
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

    /// Each machine's history classified *without* transient folding (the
    /// NO-FOLD ablation), on the calendar
    /// [`MachineTrace::to_history`] uses: the trace's day `d` is day
    /// `first_day_index + d`.
    #[must_use]
    pub fn unfolded_histories(&self) -> Vec<HistoryStore> {
        let classifier = StateClassifier::new(self.model).without_transient_folding();
        self.traces
            .iter()
            .map(|t| {
                let mut store = HistoryStore::new();
                for d in 0..t.days() {
                    let states = classifier.classify(t.day_samples(d));
                    let log = StateLog::new(t.step_secs, states);
                    store.push_day(DayLog::new(t.first_day_index + d, log));
                }
                store
            })
            .collect()
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
    /// Number of errors summarized.
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

/// The accuracy protocol's pooling rule (§7.2) for one window length:
/// `eval(machine, window)` scores one machine's test days for the window
/// starting at each hour 0:00–23:00 (`None` where no test day is usable),
/// and at each start hour every machine's usable days enter one pool, with
/// predicted and empirical TR weighted by days used. The pool's relative
/// error is reported wherever its empirical TR is above 0, in start-hour
/// order. A machine whose own test days all failed still adds them:
/// dropping it would select on the outcome.
pub fn pooled_errors<F>(machines: usize, hours: f64, eval: F) -> Vec<f64>
where
    F: Fn(usize, TimeWindow) -> Option<WindowEvaluation> + Sync,
{
    let windows: Vec<TimeWindow> = (0..24u32)
        .map(|start| TimeWindow::from_hours(f64::from(start), hours))
        .collect();
    let per = per_machine(machines, |mi| {
        windows.iter().map(|&w| eval(mi, w)).collect::<Vec<_>>()
    });
    let mut errors = Vec::new();
    for start in 0..windows.len() {
        let (mut pred, mut emp, mut n) = (0.0, 0.0, 0usize);
        for e in per.iter().filter_map(|evals| evals[start]) {
            pred += e.predicted * e.days_used as f64;
            emp += e.empirical * e.days_used as f64;
            n += e.days_used;
        }
        if n > 0 && emp > 0.0 {
            errors.push((pred - emp).abs() / emp);
        }
    }
    errors
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

/// The value after flag `key` in `args` (`--machines 12`), parsed as `T`;
/// `None` when the flag is absent, has no value, or the value does not
/// parse.
#[must_use]
pub fn flag<T: FromStr>(args: &[String], key: &str) -> Option<T> {
    let at = args.iter().position(|a| a == key)?;
    args.get(at + 1)?.parse().ok()
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
        let path: Option<String> = flag(&args, "--metrics-out");
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
    use fgcs_core::window::DayType;

    #[test]
    fn testbed_generates_consistently() {
        let tb = Testbed::generate(1, 2, 7);
        assert_eq!(tb.traces.len(), 2);
        assert_eq!(tb.histories.len(), 2);
        assert_eq!(tb.histories[0].len(), 7);
    }

    #[test]
    fn unfolded_histories_keep_the_trace_calendar() {
        let mut tb = Testbed::generate(1, 1, 3);
        tb.traces[0].first_day_index = 5;
        let days = tb.unfolded_histories().remove(0);
        let tagged: Vec<_> = days
            .days()
            .iter()
            .map(|d| (d.day_index, d.day_type))
            .collect();
        assert_eq!(
            tagged,
            [
                (5, DayType::Weekend),
                (6, DayType::Weekend),
                (7, DayType::Weekday)
            ]
        );
    }

    #[test]
    fn pooling_keeps_failed_machines_and_skips_empty_hours() {
        let eval = |predicted, empirical, days_used| {
            Some(WindowEvaluation {
                predicted,
                empirical,
                days_used,
            })
        };
        // Machine 0 has no usable day anywhere; machines 1 and 2 have days
        // at 0:00, where every one of machine 1's failed, and at 1:00,
        // where every day failed. No later hour has a usable day.
        let table = |mi: usize, w: TimeWindow| match (mi, w.start_secs / 3600) {
            (1, 0) => eval(0.5, 0.0, 2),
            (2, 0) => eval(0.9, 0.75, 4),
            (1 | 2, 1) => eval(0.6, 0.0, 3),
            _ => None,
        };
        let errors = pooled_errors(3, 2.0, table);
        let pred: f64 = 0.0 + 0.5 * 2.0 + 0.9 * 4.0;
        let emp = 0.0 + 0.0 * 2.0 + 0.75 * 4.0;
        let expected = (pred - emp).abs() / emp;
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].to_bits(), expected.to_bits());
    }

    #[test]
    fn flag_reads_the_value_after_its_key() {
        let args: Vec<String> = ["--machines", "12", "--profile", "enterprise", "--days"]
            .map(String::from)
            .into();
        assert_eq!(flag(&args, "--machines"), Some(12usize));
        assert_eq!(flag(&args, "--profile"), Some("enterprise".to_string()));
        assert_eq!(flag::<usize>(&args, "--profile"), None);
        assert_eq!(flag::<usize>(&args, "--days"), None);
        assert_eq!(flag::<usize>(&args, "--start"), None);
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
