//! Trace containers: the sampled (CPU, memory, heartbeat) series for one
//! machine, plus conversion into availability history logs.

use fgcs_runtime::impl_json_struct;
use fgcs_runtime::json::JsonError;

use fgcs_core::error::CoreError;
use fgcs_core::log::HistoryStore;
use fgcs_core::model::{AvailabilityModel, LoadSample};
use fgcs_core::window::SECS_PER_DAY;

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
        (SECS_PER_DAY / self.step_secs) as usize
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

    /// Deserialises a trace from JSON. Refuses a step that is 0 or does
    /// not divide the day, and a `first_day_index` whose days run past
    /// `usize::MAX`.
    pub fn from_json(json: &str) -> Result<MachineTrace, JsonError> {
        let trace: MachineTrace = fgcs_runtime::json::from_str(json)?;
        let step = trace.step_secs;
        if step == 0 || !SECS_PER_DAY.is_multiple_of(step) {
            let why = format!("{step} s does not divide the {SECS_PER_DAY}-s day");
            return Err(JsonError(why).in_field("step_secs"));
        }
        let (first, days) = (trace.first_day_index, trace.days());
        if first.checked_add(days).is_none() {
            let why = format!("day {first} + {days} days overflows");
            return Err(JsonError(why).in_field("first_day_index"));
        }
        Ok(trace)
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

    /// A one-day trace at a 12-h step, as `fgcs generate` writes it and
    /// every trace-reading command loads it.
    #[test]
    fn json_bytes_are_pinned() {
        const GOLDEN: &str = concat!(
            r#"{"machine_id":3,"step_secs":43200,"first_day_index":5,"physical_mem_mb":512,"#,
            r#""samples":[{"host_cpu":0.1,"free_mem_mb":300.5,"alive":true},"#,
            r#"{"host_cpu":0.725,"free_mem_mb":0,"alive":false}]}"#
        );
        let sample = |host_cpu, free_mem_mb, alive| LoadSample {
            host_cpu,
            free_mem_mb,
            alive,
        };
        let t = MachineTrace {
            machine_id: 3,
            step_secs: 43_200,
            first_day_index: 5,
            physical_mem_mb: 512.0,
            samples: vec![sample(0.1, 300.5, true), sample(0.725, 0.0, false)],
        };
        assert_eq!(t.days(), 1);
        assert_eq!(t.to_json().unwrap(), GOLDEN);
        assert_eq!(MachineTrace::from_json(GOLDEN).unwrap(), t);
    }

    /// A two-day trace at a 12-h step as JSON, with `field` set to `value`.
    fn with_field(field: &str, value: &str) -> String {
        let t = MachineTrace {
            machine_id: 1,
            step_secs: 43_200,
            first_day_index: 0,
            physical_mem_mb: 512.0,
            samples: vec![LoadSample::idle(400.0); 4],
        };
        let json = t.to_json().unwrap();
        let at = json.find(&format!("\"{field}\":")).expect("field") + field.len() + 3;
        let end = at + json[at..].find(',').expect("a later field");
        format!("{}{value}{}", &json[..at], &json[end..])
    }

    #[test]
    fn from_json_refuses_a_step_that_does_not_divide_the_day() {
        for (step, why) in [
            ("0", "0 s does not divide the 86400-s day"),
            ("7", "7 s does not divide the 86400-s day"),
        ] {
            let err = MachineTrace::from_json(&with_field("step_secs", step)).unwrap_err();
            assert_eq!(err.to_string(), format!("json error: step_secs: {why}"));
        }
    }

    #[test]
    fn from_json_refuses_days_past_usize_max() {
        let json = with_field("first_day_index", &usize::MAX.to_string());
        let err = MachineTrace::from_json(&json).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "json error: first_day_index: day {} + 2 days overflows",
                usize::MAX
            )
        );
        let last = with_field("first_day_index", &(usize::MAX - 2).to_string());
        assert!(MachineTrace::from_json(&last).is_ok());
    }
}
