//! Property-based tests over the simulation layer: gateway control ladder,
//! contention model, guest-job accounting and trace-generation invariants.
//!
//! Runs on the in-tree seeded harness (`fgcs::runtime::check`).

use fgcs::core::State;
use fgcs::runtime::check::{check, ensure, Gen};
use fgcs::sim::contention::GuestPriority;
use fgcs::sim::gateway;
use fgcs::sim::state_manager::OnlineDecision;
use fgcs::sim::{CpuContentionModel, GuestAction, GuestJob};

const CASES: u64 = 128;

/// An arbitrary online decision.
fn random_decision(g: &mut Gen) -> OnlineDecision {
    *g.pick(&[
        OnlineDecision::Operational(State::S1),
        OnlineDecision::Operational(State::S2),
        OnlineDecision::Transient,
        OnlineDecision::Failed(State::S3),
        OnlineDecision::Failed(State::S4),
        OnlineDecision::Failed(State::S5),
    ])
}

#[test]
fn gateway_never_runs_during_failure_or_transient() {
    check(
        "gateway_never_runs_during_failure_or_transient",
        CASES,
        |g| {
            let n = g.usize_in(1, 200);
            let decisions = g.vec_of(n, random_decision);
            for d in decisions {
                let action = gateway::action(d);
                match d {
                    OnlineDecision::Failed(s) => ensure(
                        action == GuestAction::Kill(s),
                        format!("failure {s} gave {action:?}"),
                    )?,
                    OnlineDecision::Transient => ensure(
                        action == GuestAction::Suspend,
                        format!("transient gave {action:?}"),
                    )?,
                    OnlineDecision::Operational(_) => ensure(
                        action != GuestAction::Kill(State::S3)
                            && action != GuestAction::Kill(State::S4)
                            && action != GuestAction::Kill(State::S5),
                        format!("operational decision killed: {action:?}"),
                    )?,
                }
            }
            Ok(())
        },
    );
}

#[test]
fn contention_allocations_are_conservative() {
    check("contention_allocations_are_conservative", CASES, |g| {
        let n = g.usize_in(0, 6);
        let demands = g.vec_of(n, Gen::prob);
        let guest_demand = g.prob();
        let lowest = g.bool_with(0.5);
        let m = CpuContentionModel::default();
        let prio = if lowest {
            GuestPriority::Lowest
        } else {
            GuestPriority::Default
        };
        let alloc = m.allocate(&demands, guest_demand, prio);
        let total: f64 = alloc.host.iter().sum::<f64>() + alloc.guest;
        ensure(total <= 1.0 + 1e-9, format!("allocated {total} > capacity"))?;
        for (a, d) in alloc.host.iter().zip(&demands) {
            ensure(*a <= d + 1e-9, format!("host got {a} for demand {d}"))?;
        }
        ensure(
            alloc.guest <= guest_demand + 1e-9,
            format!("guest got {} for demand {guest_demand}", alloc.guest),
        )?;
        ensure(
            alloc.host_effective >= 0.0,
            format!("negative effective host share {}", alloc.host_effective),
        )?;
        // Interference can only shrink what the hosts got.
        let raw: f64 = alloc.host.iter().sum();
        ensure(
            alloc.host_effective <= raw + 1e-9,
            format!("effective {} above raw {raw}", alloc.host_effective),
        )
    });
}

#[test]
fn reduction_rate_is_a_fraction() {
    check("reduction_rate_is_a_fraction", CASES, |g| {
        let n = g.usize_in(1, 6);
        let demands = g.vec_of(n, Gen::prob);
        let lowest = g.bool_with(0.5);
        let m = CpuContentionModel::default();
        let prio = if lowest {
            GuestPriority::Lowest
        } else {
            GuestPriority::Default
        };
        let r = m.host_reduction_rate(&demands, prio);
        ensure((0.0..=1.0).contains(&r), format!("reduction {r}"))
    });
}

#[test]
fn guest_job_invariants_hold_under_arbitrary_schedules() {
    check(
        "guest_job_invariants_hold_under_arbitrary_schedules",
        CASES,
        |g| {
            use fgcs::sim::CheckpointConfig;
            let n = g.usize_in(1, 300);
            let allocs = g.vec_of(n, |g| (g.prob(), g.bool_with(0.5)));
            let mut job = GuestJob::new(1, 600.0, 50.0).with_checkpointing(CheckpointConfig {
                interval_secs: 60.0,
                cost_secs: 6.0,
            });
            for (alloc, kill) in allocs {
                job.advance(alloc, 6.0);
                if kill {
                    job.rollback();
                }
                // Invariants after every event:
                ensure(
                    job.progress_secs >= job.checkpointed_secs - 1e-9,
                    format!(
                        "progress {} below checkpoint {}",
                        job.progress_secs, job.checkpointed_secs
                    ),
                )?;
                ensure(
                    job.progress_secs <= job.work_secs + 1e-9,
                    format!(
                        "progress {} above work {}",
                        job.progress_secs, job.work_secs
                    ),
                )?;
                ensure(
                    job.checkpointed_secs >= 0.0,
                    format!("negative checkpoint {}", job.checkpointed_secs),
                )?;
                ensure(
                    job.overhead_secs >= 0.0,
                    format!("negative overhead {}", job.overhead_secs),
                )?;
            }
            Ok(())
        },
    );
}

#[test]
fn trace_generator_invariants_over_profiles() {
    use fgcs::prelude::*;
    for cfg in [
        TraceConfig::lab_machine(5),
        TraceConfig::enterprise_machine(5),
        TraceConfig::server_machine(5),
    ] {
        let trace = TraceGenerator::new(cfg).generate_days(3);
        assert_eq!(trace.days(), 3);
        for s in &trace.samples {
            assert!((0.0..=1.0).contains(&s.host_cpu));
            assert!(s.free_mem_mb >= 0.0 && s.free_mem_mb <= trace.physical_mem_mb);
        }
        // A trace must classify cleanly under the default model.
        let history = trace.to_history(&AvailabilityModel::default()).unwrap();
        assert_eq!(history.len(), 3);
    }
}
