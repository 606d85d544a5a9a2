//! The iShare Gateway (paper §5.1): translates the State Manager's online
//! decisions into guest-process control — renice, suspend, resume, kill.
//!
//! The gateway keeps no state. A suspended guest resumes on the first
//! operational period after the spike, so each period's action follows from
//! that period's decision alone.

use fgcs_core::state::State;

use crate::contention::GuestPriority;
use crate::state_manager::OnlineDecision;

/// The control action applied to the guest process this period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuestAction {
    /// Run at this priority: the default below `Th1`, reniced to the lowest
    /// for `Th1 ≤ L_H ≤ Th2`.
    Run(GuestPriority),
    /// Keep the guest suspended (transient overload above `Th2`).
    Suspend,
    /// Kill the guest: the failure state is unrecoverable for it.
    Kill(State),
}

/// The action for this period, from the manager's decision.
#[must_use]
pub fn action(decision: OnlineDecision) -> GuestAction {
    match decision {
        OnlineDecision::Operational(State::S1) => GuestAction::Run(GuestPriority::Default),
        OnlineDecision::Operational(_) => GuestAction::Run(GuestPriority::Lowest),
        OnlineDecision::Transient => GuestAction::Suspend,
        OnlineDecision::Failed(state) => GuestAction::Kill(state),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_map_to_the_control_ladder() {
        use GuestAction::{Kill, Run, Suspend};
        use OnlineDecision::{Failed, Operational, Transient};
        // Renice with the load, suspend through a spike, resume on the first
        // operational period after it, kill on any failure.
        let ladder = [
            (Operational(State::S1), Run(GuestPriority::Default)),
            (Operational(State::S2), Run(GuestPriority::Lowest)),
            (Transient, Suspend),
            (Transient, Suspend),
            (Operational(State::S1), Run(GuestPriority::Default)),
            (Failed(State::S3), Kill(State::S3)),
            (Failed(State::S4), Kill(State::S4)),
            (Failed(State::S5), Kill(State::S5)),
        ];
        for (decision, want) in ladder {
            assert_eq!(action(decision), want, "{decision:?}");
        }
    }
}
