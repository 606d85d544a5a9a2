//! Trace containers: the sampled (CPU, memory, heartbeat) series for one
//! machine, plus conversion into availability history logs.

use fgcs_runtime::impl_json_struct;
use fgcs_runtime::json::JsonError;

use fgcs_core::error::CoreError;
use fgcs_core::log::HistoryStore;
use fgcs_core::model::{AvailabilityModel, LoadSample};

/// A full monitoring trace of one machine: whole days of uniformly sampled
/// [`LoadSample`]s. This is the synthetic stand-in for the paper's 3-month
/// Purdue lab recordings.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineTrace {
    /// Identifier of the machine within its cluster.
    pub machine_id: u64,
    /// Monitoring period in seconds (the paper's testbed used 6).
    pub step_secs: u32,
    /// Calendar anchor: index of the first traced day (day 0 is a Monday).
    pub first_day_index: usize,
    /// Physical memory of the machine in MB.
    pub physical_mem_mb: f64,
    /// The samples, `samples_per_day` per day, concatenated chronologically.
    pub samples: Vec<LoadSample>,
}

impl_json_struct!(MachineTrace {
    machine_id,
    step_secs,
    first_day_index,
    physical_mem_mb,
    samples,
});

impl MachineTrace {
    /// Samples per day at this trace's monitoring period.
    #[must_use]
    pub fn samples_per_day(&self) -> usize {
        (fgcs_core::window::SECS_PER_DAY / self.step_secs) as usize
    }

    /// Number of whole days in the trace.
    #[must_use]
    pub fn days(&self) -> usize {
        self.samples.len() / self.samples_per_day()
    }

    /// The samples of one day.
    ///
    /// # Panics
    /// Panics if `day` is out of range.
    #[must_use]
    pub fn day_samples(&self, day: usize) -> &[LoadSample] {
        let per_day = self.samples_per_day();
        &self.samples[day * per_day..(day + 1) * per_day]
    }

    /// Classifies the whole trace into a history store under `model`.
    ///
    /// The model's monitoring period must match the trace's.
    pub fn to_history(&self, model: &AvailabilityModel) -> Result<HistoryStore, CoreError> {
        if model.monitor_period_secs != self.step_secs {
            return Err(CoreError::StepMismatch {
                params_step: self.step_secs,
                request_step: model.monitor_period_secs,
            });
        }
        HistoryStore::from_samples(model, &self.samples, self.first_day_index)
    }

    /// Serialises the trace to JSON. Deterministic: the same trace always
    /// produces the same bytes.
    pub fn to_json(&self) -> Result<String, JsonError> {
        Ok(fgcs_runtime::json::to_string(self))
    }

    /// Deserialises a trace from JSON.
    pub fn from_json(json: &str) -> Result<MachineTrace, JsonError> {
        fgcs_runtime::json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_trace() -> MachineTrace {
        let model = AvailabilityModel::default();
        let per_day = model.samples_per_day();
        MachineTrace {
            machine_id: 1,
            step_secs: 6,
            first_day_index: 0,
            physical_mem_mb: 512.0,
            samples: vec![LoadSample::idle(400.0); per_day * 2],
        }
    }

    #[test]
    fn day_accounting() {
        let t = tiny_trace();
        assert_eq!(t.samples_per_day(), 14_400);
        assert_eq!(t.days(), 2);
        assert_eq!(t.day_samples(1).len(), 14_400);
    }

    #[test]
    fn to_history_builds_days() {
        let t = tiny_trace();
        let model = AvailabilityModel::default();
        let h = t.to_history(&model).unwrap();
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn to_history_rejects_step_mismatch() {
        let t = tiny_trace();
        let model = AvailabilityModel {
            monitor_period_secs: 30,
            ..AvailabilityModel::default()
        };
        assert!(matches!(
            t.to_history(&model),
            Err(CoreError::StepMismatch { .. })
        ));
    }

    #[test]
    fn json_round_trip() {
        let mut t = tiny_trace();
        t.samples.truncate(10); // keep the JSON small
        let json = t.to_json().unwrap();
        let back = MachineTrace::from_json(&json).unwrap();
        assert_eq!(t, back);
    }
}
