//! Applying a [`FaultPlan`] to a generated trace: the injection boundary
//! for *recorded* data, complementing the live boundary in the simulator's
//! resource monitor.
//!
//! Corrupting the trace (rather than the monitor stream) models damage
//! that happened before ingestion: a logger that wrote NaN under
//! contention, lost samples that misalign the day grid, a collector
//! killed mid-day leaving a truncated final day. The corrupted trace is
//! exactly what [`fgcs_core::log::HistoryStore::from_samples_lossy`] is
//! built to absorb.

use fgcs_runtime::fault::{FaultInjector, FaultPlan, ValueFault};
use fgcs_runtime::impl_json_struct;

use crate::trace::MachineTrace;
use fgcs_core::model::LoadSample;

/// What [`corrupt_trace`] did to a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceFaultReport {
    /// Samples whose values were corrupted (NaN / ±inf / out-of-range).
    pub corrupted_values: usize,
    /// Samples deleted from the stream (misaligning everything after).
    pub dropped_samples: usize,
    /// Samples replaced by a copy of their predecessor.
    pub duplicated_samples: usize,
    /// Samples removed by truncating the final day.
    pub truncated_samples: usize,
}

impl_json_struct!(TraceFaultReport {
    corrupted_values,
    dropped_samples,
    duplicated_samples,
    truncated_samples,
});

impl TraceFaultReport {
    /// Whether the trace came through untouched.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        *self == TraceFaultReport::default()
    }
}

/// Corrupts a trace in place according to `plan`, using the trace's
/// machine id as the fault stream. Deterministic: the same (trace, plan)
/// always yields the same corruption. A zero plan leaves the trace
/// bit-identical.
///
/// Value faults and duplications preserve length; drops shorten the
/// stream (deliberately breaking whole-day alignment); final-day
/// truncation cuts the tail. The order — values, duplication, drops,
/// truncation — mirrors how a real logger damages data: bad readings are
/// written first, then records go missing.
pub fn corrupt_trace(trace: &mut MachineTrace, plan: &FaultPlan) -> TraceFaultReport {
    let mut report = TraceFaultReport::default();
    if plan.is_zero() {
        return report;
    }
    let injector = FaultInjector::new(plan.clone());
    let stream = trace.machine_id;

    // Pass 1 (length-preserving): value corruption and duplication.
    let mut prev: Option<LoadSample> = None;
    for (i, sample) in trace.samples.iter_mut().enumerate() {
        let idx = i as u64;
        if let Some(fault) = injector.value_fault(stream, idx) {
            corrupt_value(sample, fault);
            report.corrupted_values += 1;
        } else if let (true, Some(p)) = (injector.duplicated(stream, idx), prev) {
            *sample = p;
            report.duplicated_samples += 1;
        }
        prev = Some(*sample);
    }

    // Pass 2: drops (indexed by original position, so the decision stream
    // is independent of how many earlier samples were dropped).
    let before = trace.samples.len();
    let mut keep_idx = 0u64;
    trace.samples.retain(|_| {
        let keep = !injector.dropped(stream, keep_idx);
        keep_idx += 1;
        keep
    });
    report.dropped_samples = before - trace.samples.len();

    // Pass 3: truncate the final day (on the post-drop stream — the
    // collector died while writing whatever the file held by then).
    let per_day = trace.samples_per_day();
    if per_day > 0 && !trace.samples.is_empty() {
        let last_day = (trace.samples.len() - 1) / per_day;
        let day_start = last_day * per_day;
        let day_len = trace.samples.len() - day_start;
        if let Some(keep) = injector.truncated_day_len(stream, last_day as u64, day_len) {
            report.truncated_samples = day_len - keep;
            trace.samples.truncate(day_start + keep);
        }
    }
    report
}

/// Applies one value fault to a sample, leaving the heartbeat intact
/// (value corruption and machine death are independent failures). The
/// one corruption rule of both injection boundaries: recorded traces
/// here, the simulator's live monitor stream (`fgcs_sim::node`).
pub fn corrupt_value(sample: &mut LoadSample, fault: ValueFault) {
    match fault {
        ValueFault::Nan => {
            sample.host_cpu = f64::NAN;
            sample.free_mem_mb = f64::NAN;
        }
        ValueFault::PosInf => {
            sample.host_cpu = f64::INFINITY;
            sample.free_mem_mb = f64::INFINITY;
        }
        ValueFault::NegInf => {
            sample.host_cpu = f64::NEG_INFINITY;
            sample.free_mem_mb = f64::NEG_INFINITY;
        }
        ValueFault::OutOfRange => {
            sample.host_cpu = 17.5;
            sample.free_mem_mb = -4096.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{TraceConfig, TraceGenerator};

    fn trace(days: usize) -> MachineTrace {
        TraceGenerator::new(TraceConfig::lab_machine(42)).generate_days(days)
    }

    #[test]
    fn zero_plan_is_bit_identical() {
        let mut t = trace(2);
        let pristine = t.clone();
        let report = corrupt_trace(&mut t, &FaultPlan::none(7));
        assert!(report.is_clean());
        assert_eq!(t, pristine);
    }

    #[test]
    fn corruption_is_deterministic() {
        let plan = FaultPlan::chaos(11);
        let mut a = trace(3);
        let mut b = a.clone();
        let ra = corrupt_trace(&mut a, &plan);
        let rb = corrupt_trace(&mut b, &plan);
        assert_eq!(ra, rb);
        // Bitwise comparison: injected NaNs make PartialEq useless here.
        assert_eq!(a.samples.len(), b.samples.len());
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert_eq!(x.host_cpu.to_bits(), y.host_cpu.to_bits());
            assert_eq!(x.free_mem_mb.to_bits(), y.free_mem_mb.to_bits());
            assert_eq!(x.alive, y.alive);
        }
    }

    #[test]
    fn chaos_plan_touches_every_category() {
        let plan = FaultPlan {
            truncate_day_rate: 1.0, // force the truncation path
            ..FaultPlan::chaos(5)
        };
        let mut t = trace(3);
        let before = t.samples.len();
        let report = corrupt_trace(&mut t, &plan);
        assert!(report.corrupted_values > 0);
        assert!(report.dropped_samples > 0);
        assert!(report.duplicated_samples > 0);
        assert!(report.truncated_samples > 0);
        assert_eq!(
            t.samples.len(),
            before - report.dropped_samples - report.truncated_samples
        );
        // The stream now carries insane values the lossy ingestor must fix.
        assert!(t.samples.iter().any(|s| !s.is_sane()));
    }

    #[test]
    fn corrupted_trace_survives_lossy_ingestion() {
        use fgcs_core::model::AvailabilityModel;
        let plan = FaultPlan::chaos(23);
        let mut t = trace(4);
        corrupt_trace(&mut t, &plan);
        let model = AvailabilityModel::default();
        // Strict ingestion rejects the misaligned stream…
        assert!(t.to_history(&model).is_err());
        // …lossy ingestion absorbs it.
        let (store, report) =
            fgcs_core::log::HistoryStore::from_samples_lossy(&model, &t.samples, t.first_day_index);
        assert!(!store.is_empty());
        assert!(report.repaired_samples > 0);
        assert!(report.trailing_samples_dropped > 0);
    }
}
