//! Error types of the core crate.

use crate::state::State;
use crate::window::TimeWindow;

/// Errors produced by the availability model, history store and predictor.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A sample stream did not divide evenly into whole days.
    PartialDay {
        /// Number of samples supplied.
        samples: usize,
        /// Samples required per day at the configured monitoring period.
        per_day: usize,
    },
    /// No history days matched the requested day type / window.
    EmptyHistory {
        /// The window that was requested.
        window: TimeWindow,
    },
    /// Temporal reliability was requested for a failure initial state.
    FailureInitialState(State),
    /// The discretisation steps of the parameters and the request disagree.
    StepMismatch {
        /// Step the SMP parameters were estimated at.
        params_step: u32,
        /// Step implied by the request.
        request_step: u32,
    },
    /// The requested horizon exceeds the horizon the kernel was estimated on.
    HorizonTooLong {
        /// Steps requested.
        requested: usize,
        /// Steps available in the estimated kernel.
        available: usize,
    },
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::PartialDay { samples, per_day } => write!(
                f,
                "{samples} samples do not divide into whole days of {per_day}"
            ),
            CoreError::EmptyHistory { window } => {
                write!(f, "no history days cover window {window}")
            }
            CoreError::FailureInitialState(s) => {
                write!(f, "cannot predict from failure state {s}")
            }
            CoreError::StepMismatch {
                params_step,
                request_step,
            } => write!(
                f,
                "parameters were estimated at step {params_step}s but the request uses {request_step}s"
            ),
            CoreError::HorizonTooLong {
                requested,
                available,
            } => write!(
                f,
                "requested horizon of {requested} steps exceeds the estimated {available}"
            ),
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_have_readable_messages() {
        let e = CoreError::FailureInitialState(State::S5);
        assert!(e.to_string().contains("S5"));
        let e = CoreError::PartialDay {
            samples: 10,
            per_day: 14_400,
        };
        assert!(e.to_string().contains("14400"));
        let e = CoreError::EmptyHistory {
            window: TimeWindow::from_hours(8.0, 2.0),
        };
        assert!(e.to_string().contains("08:00"));
    }
}
