//! System-level integration: the simulated FGCS node/cluster against
//! generated traces — online classification fidelity, guest lifecycle, and
//! scheduling.

use fgcs::prelude::*;
use fgcs::sim::{Cluster, JobSpec, StateManager};

#[test]
fn online_manager_reproduces_offline_logs_on_generated_trace() {
    let model = AvailabilityModel::default();
    let trace = TraceGenerator::new(TraceConfig::lab_machine(21)).generate_days(3);
    // Offline reference.
    let offline = trace.to_history(&model).unwrap();
    // Online replay.
    let mut manager = StateManager::new(model, 0);
    for s in &trace.samples {
        let truth = if s.alive { Some(*s) } else { None };
        manager.observe(truth);
    }
    let online = manager.history();
    assert_eq!(online.len(), offline.len());

    let mut mismatches = 0usize;
    let mut total = 0usize;
    for (a, b) in online.days().iter().zip(offline.days()) {
        for (x, y) in a.log.states().iter().zip(&b.log.states()) {
            total += 1;
            if x != y {
                mismatches += 1;
            }
        }
    }
    // The heartbeat-gap detection delays S5 by up to 2 samples per outage,
    // and day-boundary spikes may fold differently; everything else must
    // agree.
    assert!(
        (mismatches as f64) < 0.005 * total as f64,
        "{mismatches}/{total} online/offline mismatches"
    );
}

#[test]
fn guest_on_generated_trace_survives_or_dies_consistently() {
    let model = AvailabilityModel::default();
    let trace = TraceGenerator::new(TraceConfig::lab_machine(22)).generate_days(2);
    let mut node = fgcs::sim::HostNode::new(trace, model);
    // Submit a half-hour job at midnight (quiet): should complete.
    node.submit(GuestJob::new(1, 1800.0, 50.0)).unwrap();
    let mut guard = 0;
    while node.busy() && guard < 14_400 {
        node.step();
        guard += 1;
    }
    let records = node.take_records();
    assert_eq!(records.len(), 1);
    match records[0].outcome {
        GuestOutcome::Completed { at_tick } => {
            // At most ~2x slowdown from background load.
            assert!(at_tick < 1200, "took {at_tick} ticks");
        }
        GuestOutcome::Killed { reason, .. } => {
            // Rare but legitimate: a midnight revocation or early overload.
            assert!(reason.is_failure());
        }
    }
}

#[test]
fn checkpointing_reduces_lost_work() {
    let model = AvailabilityModel::default();
    // A trace that is overloaded from the 30-minute mark onward.
    let per_day = model.samples_per_day();
    let mut samples = vec![LoadSample::idle(400.0); per_day];
    for s in &mut samples[300..600] {
        s.host_cpu = 0.95;
    }
    let trace = MachineTrace {
        machine_id: 0,
        step_secs: 6,
        first_day_index: 0,
        physical_mem_mb: 512.0,
        samples,
    };

    let run = |job: GuestJob| {
        let mut node = fgcs::sim::HostNode::new(trace.clone(), model);
        node.submit(job).unwrap();
        for _ in 0..700 {
            node.step();
        }
        node.take_records().remove(0)
    };

    let plain = run(GuestJob::new(1, 7200.0, 50.0));
    let checkpointed = run(
        GuestJob::new(2, 7200.0, 50.0).with_checkpointing(CheckpointConfig {
            interval_secs: 300.0,
            cost_secs: 5.0,
        }),
    );
    // Both get killed by the overload; the checkpointed job retains
    // progress, the plain one restarts from zero.
    assert!(matches!(plain.outcome, GuestOutcome::Killed { .. }));
    assert!(matches!(checkpointed.outcome, GuestOutcome::Killed { .. }));
    assert_eq!(plain.job.progress_secs, 0.0);
    assert!(
        checkpointed.job.progress_secs >= 1500.0,
        "checkpointed progress {}",
        checkpointed.job.progress_secs
    );
}

#[test]
fn cluster_workload_accounting_is_complete() {
    let model = AvailabilityModel::default();
    let traces = fgcs::trace::generate_cluster(&TraceConfig::lab_machine(23), 3, 9);
    let per_day = traces[0].samples_per_day() as u64;
    let mut cluster = Cluster::from_traces(traces, model);
    cluster.warm_up(7);
    let jobs: Vec<JobSpec> = (0..6)
        .map(|i| JobSpec::new(i + 1, 1800.0, 60.0, 7 * per_day + i * 600))
        .collect();
    let mut sched = JobScheduler::new(SchedulingPolicy::MaxReliability, 5);
    let records = cluster.run_workload(jobs, &mut sched);
    assert_eq!(records.len(), 6);
    for r in &records {
        // Every job either completed or is still pending at trace end; a
        // completed job has at least one placement and consistent timing.
        if let Some(done) = r.completed_tick {
            assert!(done >= r.arrival_tick);
            assert!(!r.placements.is_empty());
            assert!(r.response_secs(cluster.step_secs()).unwrap() >= 1800.0 - 1e-6);
        }
    }
    // On a 3-node lab cluster over two days, most half-hour jobs finish.
    let completed = records
        .iter()
        .filter(|r| r.completed_tick.is_some())
        .count();
    assert!(completed >= 4, "only {completed}/6 jobs completed");
}

#[test]
fn monitor_overhead_claim_holds() {
    let model = AvailabilityModel::default();
    let monitor = fgcs::sim::ResourceMonitor::new(&model);
    assert!(monitor.overhead_fraction() < 0.01, "paper: < 1% CPU");
}
