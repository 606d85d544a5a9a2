//! A multi-node FGCS testbed: drives all host nodes in lockstep, feeds a
//! workload of guest jobs through a [`JobScheduler`], and records response
//! times — the end-to-end loop the paper's §5.1 framework implies.

use fgcs_core::model::AvailabilityModel;
use fgcs_trace::MachineTrace;

use crate::guest::{GuestJob, GuestOutcome};
use crate::migration::MigrationPolicy;
use crate::node::HostNode;
use crate::scheduler::{reliability_horizon, JobScheduler};

/// A job to be injected into the cluster at a given tick.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Job identifier.
    pub id: u64,
    /// CPU-seconds of work at full speed.
    pub work_secs: f64,
    /// Working set in MB.
    pub working_set_mb: f64,
    /// Tick at which the job arrives at the scheduler.
    pub arrival_tick: u64,
    /// Job-group identifier: the paper's guest applications are often
    /// "composed of multiple related jobs that are submitted as a group and
    /// must all complete before the results being used" (§1). Jobs sharing
    /// a group id form such a batch; `None` for independent jobs.
    pub group: Option<u64>,
}

impl JobSpec {
    /// An independent job.
    #[must_use]
    pub fn new(id: u64, work_secs: f64, working_set_mb: f64, arrival_tick: u64) -> JobSpec {
        JobSpec {
            id,
            work_secs,
            working_set_mb,
            arrival_tick,
            group: None,
        }
    }

    /// Assigns the job to a group.
    #[must_use]
    pub fn in_group(mut self, group: u64) -> JobSpec {
        self.group = Some(group);
        self
    }
}

/// Response-time summary of one job group: the group completes when its
/// *last* member does.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRecord {
    /// Group identifier.
    pub group: u64,
    /// Member job ids.
    pub members: Vec<u64>,
    /// Earliest member arrival.
    pub arrival_tick: u64,
    /// Tick at which the last member completed (`None` if any member is
    /// unfinished).
    pub completed_tick: Option<u64>,
    /// Total kills across the group.
    pub kills: usize,
}

impl GroupRecord {
    /// Group response time in seconds.
    #[must_use]
    pub fn response_secs(&self, step_secs: u32) -> Option<f64> {
        self.completed_tick
            .map(|c| (c.saturating_sub(self.arrival_tick)) as f64 * f64::from(step_secs))
    }
}

/// Aggregates per-job records into per-group records (§1: all members must
/// complete before the results are usable).
#[must_use]
pub fn group_records(specs: &[JobSpec], records: &[JobRecord]) -> Vec<GroupRecord> {
    let mut groups: Vec<GroupRecord> = Vec::new();
    for spec in specs {
        let Some(gid) = spec.group else { continue };
        let record = records.iter().find(|r| r.id == spec.id);
        let entry = match groups.iter_mut().find(|g| g.group == gid) {
            Some(g) => g,
            None => {
                groups.push(GroupRecord {
                    group: gid,
                    members: Vec::new(),
                    arrival_tick: spec.arrival_tick,
                    completed_tick: Some(0),
                    kills: 0,
                });
                groups.last_mut().expect("just pushed")
            }
        };
        entry.members.push(spec.id);
        entry.arrival_tick = entry.arrival_tick.min(spec.arrival_tick);
        if let Some(r) = record {
            entry.kills += r.kills;
            entry.completed_tick = match (entry.completed_tick, r.completed_tick) {
                (Some(acc), Some(c)) => Some(acc.max(c)),
                _ => None,
            };
        } else {
            entry.completed_tick = None;
        }
    }
    groups
}

/// The fate of one workload job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Job identifier.
    pub id: u64,
    /// CPU-seconds of work the job required.
    pub work_secs: f64,
    /// Arrival tick.
    pub arrival_tick: u64,
    /// Completion tick (None if the simulation ended first).
    pub completed_tick: Option<u64>,
    /// Number of times the job was killed and had to restart.
    pub kills: usize,
    /// Node ids the job ran on, in order.
    pub placements: Vec<u64>,
    /// CPU-seconds spent taking checkpoints.
    pub checkpoint_overhead_secs: f64,
    /// Number of proactive migrations the job went through.
    pub migrations: usize,
}

impl JobRecord {
    /// Response time in seconds (wall time from arrival to completion).
    #[must_use]
    pub fn response_secs(&self, step_secs: u32) -> Option<f64> {
        self.completed_tick
            .map(|c| (c.saturating_sub(self.arrival_tick)) as f64 * f64::from(step_secs))
    }
}

/// A set of host nodes driven in lockstep.
#[derive(Debug)]
pub struct Cluster {
    nodes: Vec<HostNode>,
    step_secs: u32,
}

impl Cluster {
    /// Builds a cluster from traces, all replayed under the same model.
    ///
    /// # Panics
    /// Panics if the traces disagree on the monitoring period or if no
    /// traces are given.
    #[must_use]
    pub fn from_traces(traces: Vec<MachineTrace>, model: AvailabilityModel) -> Cluster {
        assert!(!traces.is_empty(), "cluster needs at least one node");
        let step_secs = traces[0].step_secs;
        assert!(
            traces.iter().all(|t| t.step_secs == step_secs),
            "traces must share one monitoring period"
        );
        Cluster {
            nodes: traces
                .into_iter()
                .map(|t| HostNode::new(t, model))
                .collect(),
            step_secs,
        }
    }

    /// Warm-up: replay `days` of every node's trace into its history.
    pub fn warm_up(&mut self, days: usize) {
        for node in &mut self.nodes {
            node.warm_up(days);
        }
    }

    /// The nodes (read-only).
    #[must_use]
    pub fn nodes(&self) -> &[HostNode] {
        &self.nodes
    }

    /// The monitoring period.
    #[must_use]
    pub fn step_secs(&self) -> u32 {
        self.step_secs
    }

    /// Runs `jobs` through the cluster under `scheduler` until every node's
    /// trace is exhausted, and returns one record per job. Killed jobs are
    /// re-queued (restarting from their last checkpoint, or from scratch).
    pub fn run_workload(
        &mut self,
        jobs: Vec<JobSpec>,
        scheduler: &mut JobScheduler,
    ) -> Vec<JobRecord> {
        self.run_workload_with_migration(jobs, scheduler, None)
    }

    /// Like [`Cluster::run_workload`], but with optional proactive
    /// migration: running jobs are periodically re-evaluated and moved off
    /// hosts whose predicted reliability has collapsed.
    pub fn run_workload_with_migration(
        &mut self,
        jobs: Vec<JobSpec>,
        scheduler: &mut JobScheduler,
        migration: Option<MigrationPolicy>,
    ) -> Vec<JobRecord> {
        let mut records: Vec<JobRecord> = jobs
            .iter()
            .map(|j| JobRecord {
                id: j.id,
                work_secs: j.work_secs,
                arrival_tick: j.arrival_tick,
                completed_tick: None,
                kills: 0,
                placements: Vec::new(),
                checkpoint_overhead_secs: 0.0,
                migrations: 0,
            })
            .collect();
        // Pending queue: (ready_tick, guest job). Jobs keep identity across
        // restarts via their id.
        let mut pending: Vec<(u64, GuestJob)> = jobs
            .iter()
            .map(|j| {
                (
                    j.arrival_tick,
                    GuestJob::new(j.id, j.work_secs, j.working_set_mb),
                )
            })
            .collect();
        pending.sort_by_key(|(t, j)| (*t, j.id));

        let horizon = self
            .nodes
            .iter()
            .map(HostNode::total_ticks)
            .max()
            .unwrap_or(0);
        let mut now = self.nodes.iter().map(HostNode::tick).min().unwrap_or(0);

        while now < horizon {
            // Try to place ready jobs.
            let mut unplaced = Vec::new();
            for (ready, job) in std::mem::take(&mut pending) {
                if ready > now {
                    unplaced.push((ready, job));
                    continue;
                }
                let job_id = job.id;
                match scheduler.choose(&self.nodes, &job) {
                    Some(idx) => {
                        let node_id = self.nodes[idx].id;
                        let job = scheduler.configure_job(&self.nodes[idx], job);
                        match self.nodes[idx].submit(job) {
                            Ok(()) => {
                                if let Some(r) = records.iter_mut().find(|r| r.id == job_id) {
                                    r.placements.push(node_id);
                                }
                            }
                            Err(job) => unplaced.push((now + 1, job)),
                        }
                    }
                    None => unplaced.push((now + 1, job)),
                }
            }
            pending = unplaced;

            // Proactive migration checks.
            if let Some(policy) = migration {
                let interval = policy.check_interval_steps(self.step_secs);
                if now % interval == 0 {
                    self.run_migration_round(policy, now, &mut records, &mut pending);
                }
            }

            // Advance every node one tick.
            for node in &mut self.nodes {
                node.step();
            }
            now += 1;

            // Collect outcomes; killed jobs re-enter the queue.
            for node in &mut self.nodes {
                for rec in node.take_records() {
                    let job_id = rec.job.id;
                    let Some(r) = records.iter_mut().find(|r| r.id == job_id) else {
                        continue;
                    };
                    // The job carries its accumulated overhead across
                    // restarts, so the latest figure is the total.
                    r.checkpoint_overhead_secs = rec.job.overhead_secs;
                    match rec.outcome {
                        GuestOutcome::Completed { at_tick } => {
                            r.completed_tick = Some(at_tick);
                        }
                        GuestOutcome::Killed { at_tick, .. } => {
                            r.kills += 1;
                            let mut job = rec.job;
                            job.rollback();
                            pending.push((at_tick + 1, job));
                        }
                    }
                }
            }
            pending.sort_by_key(|(t, j)| (*t, j.id));
        }
        records
    }

    /// One migration sweep: for every busy node, compare its predicted TR
    /// over the job's remaining runtime with the best available
    /// alternative's, and recall the guest when the policy says so.
    fn run_migration_round(
        &mut self,
        policy: MigrationPolicy,
        now: u64,
        records: &mut [JobRecord],
        pending: &mut Vec<(u64, GuestJob)>,
    ) {
        let n = self.nodes.len();
        for i in 0..n {
            // An unreachable node can neither answer the TR query nor hand
            // its guest over; skip it until connectivity returns.
            if self.nodes[i].blacked_out() {
                continue;
            }
            let Some(remaining) = self.nodes[i].guest_remaining_secs() else {
                continue;
            };
            let horizon = reliability_horizon(remaining);
            let Ok(current_tr) = self.nodes[i].predict_tr(horizon) else {
                continue;
            };
            let best_alt = self
                .nodes
                .iter()
                .enumerate()
                .filter(|(j, node)| *j != i && node.available() && !node.blacked_out())
                .filter_map(|(_, node)| node.predict_tr(horizon).ok())
                .fold(None::<f64>, |acc, tr| {
                    Some(acc.map_or(tr, |best| best.max(tr)))
                });
            if policy.should_migrate(current_tr, best_alt) {
                if let Some(job) = self.nodes[i].recall_guest() {
                    fgcs_runtime::counter_add!("sim.migration.count", 1);
                    if let Some(r) = records.iter_mut().find(|r| r.id == job.id) {
                        r.migrations += 1;
                    }
                    let cost_steps =
                        (policy.migration_cost_secs / f64::from(self.step_secs)).ceil() as u64;
                    pending.push((now + cost_steps.max(1), job));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::SchedulingPolicy;
    use fgcs_core::model::LoadSample;

    fn quiet_trace(id: u64, days: usize) -> MachineTrace {
        let model = AvailabilityModel::default();
        MachineTrace {
            machine_id: id,
            step_secs: 6,
            first_day_index: 0,
            physical_mem_mb: 512.0,
            samples: vec![LoadSample::idle(400.0); days * model.samples_per_day()],
        }
    }

    #[test]
    fn jobs_complete_on_quiet_cluster() {
        let traces = vec![quiet_trace(0, 1), quiet_trace(1, 1)];
        let mut cluster = Cluster::from_traces(traces, AvailabilityModel::default());
        let jobs = vec![
            JobSpec::new(1, 600.0, 50.0, 0),
            JobSpec::new(2, 1200.0, 50.0, 10),
        ];
        let mut sched = JobScheduler::new(SchedulingPolicy::RoundRobin, 0);
        let records = cluster.run_workload(jobs, &mut sched);
        assert_eq!(records.len(), 2);
        for r in &records {
            assert!(r.completed_tick.is_some(), "job {} unfinished", r.id);
            assert_eq!(r.kills, 0);
            assert_eq!(r.placements.len(), 1);
        }
        // 600 s of work ≈ 100 ticks.
        let resp = records[0].response_secs(6).unwrap();
        assert!((590.0..=660.0).contains(&resp), "response {resp}");
    }

    #[test]
    fn killed_jobs_are_restarted_elsewhere() {
        // Node 0 dies shortly after start; node 1 stays quiet.
        let mut dying = quiet_trace(0, 1);
        for s in &mut dying.samples[50..] {
            *s = LoadSample::revoked();
        }
        let traces = vec![dying, quiet_trace(1, 1)];
        let mut cluster = Cluster::from_traces(traces, AvailabilityModel::default());
        let jobs = vec![JobSpec::new(1, 1200.0, 50.0, 0)];
        // RoundRobin places on node 0 first -> killed -> restarted on node 1.
        let mut sched = JobScheduler::new(SchedulingPolicy::RoundRobin, 0);
        let records = cluster.run_workload(jobs, &mut sched);
        assert_eq!(records[0].kills, 1);
        assert!(records[0].completed_tick.is_some());
        assert_eq!(records[0].placements, vec![0, 1]);
    }

    #[test]
    fn queueing_when_all_nodes_busy() {
        let traces = vec![quiet_trace(0, 1)];
        let mut cluster = Cluster::from_traces(traces, AvailabilityModel::default());
        let jobs = vec![
            JobSpec::new(1, 600.0, 50.0, 0),
            JobSpec::new(2, 600.0, 50.0, 0),
        ];
        let mut sched = JobScheduler::new(SchedulingPolicy::RoundRobin, 0);
        let records = cluster.run_workload(jobs, &mut sched);
        let c1 = records[0].completed_tick.unwrap();
        let c2 = records[1].completed_tick.unwrap();
        assert!(c2 > c1, "second job must wait: {c1} vs {c2}");
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_cluster_panics() {
        let _ = Cluster::from_traces(vec![], AvailabilityModel::default());
    }

    /// Builds a trace whose every day is overloaded between `from_hour` and
    /// `to_hour`.
    fn daily_overload_trace(
        id: u64,
        days: usize,
        from_hour: usize,
        to_hour: usize,
    ) -> MachineTrace {
        let model = AvailabilityModel::default();
        let per_day = model.samples_per_day();
        let per_hour = per_day / 24;
        let mut samples = Vec::with_capacity(days * per_day);
        for _ in 0..days {
            for i in 0..per_day {
                let hour = i / per_hour;
                let cpu = if (from_hour..to_hour).contains(&hour) {
                    0.95
                } else {
                    0.05
                };
                samples.push(LoadSample {
                    host_cpu: cpu,
                    free_mem_mb: 400.0,
                    alive: true,
                });
            }
        }
        MachineTrace {
            machine_id: id,
            step_secs: 6,
            first_day_index: 0,
            physical_mem_mb: 512.0,
            samples,
        }
    }

    #[test]
    fn group_records_aggregate_members() {
        let specs = vec![
            JobSpec::new(1, 100.0, 10.0, 0).in_group(7),
            JobSpec::new(2, 100.0, 10.0, 5).in_group(7),
            JobSpec::new(3, 100.0, 10.0, 2), // independent
        ];
        let mk = |id: u64, done: Option<u64>, kills: usize| JobRecord {
            id,
            work_secs: 100.0,
            arrival_tick: 0,
            completed_tick: done,
            kills,
            placements: vec![0],
            checkpoint_overhead_secs: 0.0,
            migrations: 0,
        };
        let records = vec![mk(1, Some(50), 1), mk(2, Some(80), 0), mk(3, Some(10), 0)];
        let groups = group_records(&specs, &records);
        assert_eq!(groups.len(), 1);
        let g = &groups[0];
        assert_eq!(g.group, 7);
        assert_eq!(g.members, vec![1, 2]);
        assert_eq!(g.arrival_tick, 0);
        // Group completes with its LAST member.
        assert_eq!(g.completed_tick, Some(80));
        assert_eq!(g.kills, 1);
        assert_eq!(g.response_secs(6), Some(480.0));
    }

    #[test]
    fn unfinished_member_leaves_group_incomplete() {
        let specs = vec![
            JobSpec::new(1, 100.0, 10.0, 0).in_group(1),
            JobSpec::new(2, 100.0, 10.0, 0).in_group(1),
        ];
        let mk = |id: u64, done: Option<u64>| JobRecord {
            id,
            work_secs: 100.0,
            arrival_tick: 0,
            completed_tick: done,
            kills: 0,
            placements: vec![],
            checkpoint_overhead_secs: 0.0,
            migrations: 0,
        };
        let records = vec![mk(1, Some(50)), mk(2, None)];
        let groups = group_records(&specs, &records);
        assert_eq!(groups[0].completed_tick, None);
        assert_eq!(groups[0].response_secs(6), None);
    }

    #[test]
    fn proactive_migration_rescues_doomed_job() {
        use crate::migration::MigrationPolicy;
        use crate::scheduler::SchedulingPolicy;

        // Node 0 is overloaded 01:00-06:00 every day; node 1 is quiet.
        // A 2-hour job arrives at 00:00 on day 3 and RoundRobin places it
        // on node 0, where it is doomed to be killed at 01:00.
        let run = |migration: Option<MigrationPolicy>| {
            let traces = vec![daily_overload_trace(0, 4, 1, 6), quiet_trace(1, 4)];
            let mut cluster = Cluster::from_traces(traces, AvailabilityModel::default());
            cluster.warm_up(3);
            let per_day = 14_400u64;
            let jobs = vec![JobSpec::new(1, 2.0 * 3600.0, 50.0, 3 * per_day)];
            let mut sched = JobScheduler::new(SchedulingPolicy::RoundRobin, 0);
            cluster.run_workload_with_migration(jobs, &mut sched, migration)
        };

        let without = run(None);
        assert!(without[0].kills >= 1, "baseline job should be killed");

        let with = run(Some(MigrationPolicy {
            check_interval_secs: 600,
            tr_threshold: 0.5,
            min_improvement: 0.2,
            migration_cost_secs: 60.0,
        }));
        assert!(with[0].migrations >= 1, "job should have migrated");
        assert_eq!(with[0].kills, 0, "migration should pre-empt the kill");
        assert!(with[0].completed_tick.is_some());
        assert!(
            with[0].completed_tick.unwrap() <= without[0].completed_tick.unwrap_or(u64::MAX),
            "migration should not be slower than kill-and-restart"
        );

        // The default policy's TR < 0.3 trigger fires here too, at the same
        // check: one migration, no kill, the same completion tick.
        let conservative = run(Some(MigrationPolicy::conservative()));
        assert_eq!(conservative[0].migrations, 1);
        assert_eq!(conservative, with);
    }
}
