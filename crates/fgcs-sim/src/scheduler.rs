//! The client-side Job Scheduler (paper §5.1): "the client's Job Scheduler
//! queries the gateways on the available machines for their temporal
//! reliability within the future time window of job execution, and decides
//! on which machine(s) the job would be executed."
//!
//! Several placement policies are provided so the proactive (prediction-
//! driven) scheduler can be compared against prediction-oblivious
//! baselines, quantifying the §1 claim that proactive management improves
//! job response times.

use std::collections::HashMap;

use fgcs_core::robust::QualifiedTr;
use fgcs_runtime::rng::{Rng, Xoshiro256};

use crate::checkpoint::CheckpointPolicy;
use crate::guest::GuestJob;
use crate::node::{HostNode, QueryError};

/// Candidate count from which the prediction-driven policies fan their TR
/// queries across worker threads. Below this, thread spawn/join overhead
/// exceeds the few-microsecond per-node query cost.
const PARALLEL_QUERY_THRESHOLD: usize = 4;

/// Queries every node's *qualified* TR over `horizon_secs` in parallel and
/// returns the results in node order (`fgcs_runtime::parallel` guarantees
/// index ordering, so simulations stay deterministic regardless of core
/// count). A reachable node always answers (degrading down to its prior);
/// `Err` marks nodes that could not be reached at all (monitoring
/// blackout).
pub fn predict_cluster_qualified(
    nodes: &[HostNode],
    horizon_secs: u32,
) -> Vec<Result<QualifiedTr, QueryError>> {
    fgcs_runtime::counter_add!("sim.scheduler.cluster_sweeps", 1);
    fgcs_runtime::histogram_record!("sim.scheduler.sweep_size", nodes.len() as u64);
    fgcs_runtime::parallel::par_map(nodes, |n| n.predict_tr_qualified(horizon_secs))
}

/// Qualified TR for each candidate index, fanned across threads when the
/// candidate set is large enough to pay for them. Query failures stay
/// failures — counted in `sim.scheduler.predict_failures`, never papered
/// over with an invented TR.
fn candidate_predictions(
    nodes: &[HostNode],
    candidates: &[usize],
    horizon_secs: u32,
) -> Vec<Result<QualifiedTr, QueryError>> {
    fgcs_runtime::histogram_record!("sim.scheduler.sweep_size", candidates.len() as u64);
    let query = |&i: &usize| nodes[i].predict_tr_qualified(horizon_secs);
    let results = if candidates.len() >= PARALLEL_QUERY_THRESHOLD {
        fgcs_runtime::counter_add!("sim.scheduler.parallel_sweeps", 1);
        fgcs_runtime::parallel::par_map(candidates, query)
    } else {
        candidates.iter().map(query).collect()
    };
    let failures = results.iter().filter(|r| r.is_err()).count();
    if failures > 0 {
        fgcs_runtime::counter_add!("sim.scheduler.predict_failures", failures as u64);
    }
    let degraded = results
        .iter()
        .filter(|r| matches!(r, Ok(q) if q.quality.is_degraded()))
        .count();
    if degraded > 0 {
        fgcs_runtime::counter_add!("sim.scheduler.degraded_predictions", degraded as u64);
    }
    results
}

/// Slack on a job's remaining work for contention-induced slowdown: the
/// window a placement asks reliability over is this much longer.
const RUNTIME_SLACK: f64 = 1.3;

/// The reliability window, in seconds, for a job with `remaining_secs` of
/// work left: the work with 30 % slack, and never under a minute.
#[must_use]
pub(crate) fn reliability_horizon(remaining_secs: f64) -> u32 {
    ((remaining_secs * RUNTIME_SLACK) as u32).max(60)
}

/// Consecutive failed queries before a node is blacklisted.
const BLACKLIST_THRESHOLD: u32 = 3;
/// Initial blacklist duration, in scheduling rounds.
const BLACKLIST_BASE_ROUNDS: u64 = 8;
/// Blacklist backoff ceiling, in scheduling rounds.
const BLACKLIST_MAX_ROUNDS: u64 = 256;

/// Per-node query-failure bookkeeping for the blacklist.
#[derive(Debug, Clone, Copy)]
struct BlacklistEntry {
    consecutive_failures: u32,
    barred_until_round: u64,
    backoff_rounds: u64,
}

/// Placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulingPolicy {
    /// Pick the free node with the highest predicted temporal reliability
    /// over the job's estimated runtime (the paper's proposal).
    MaxReliability,
    /// Pick a uniformly random free node (prediction-oblivious baseline).
    Random,
    /// Cycle through free nodes in order (prediction-oblivious baseline).
    RoundRobin,
    /// Pick the free node with the lowest instantaneous host load — a
    /// reactive heuristic with information but no forecast.
    LeastLoaded,
    /// Maximise predicted reliability × expected speed: `TR · (1 − L_H)`.
    /// Temporal reliability alone ignores that a safe-but-busy machine runs
    /// the guest slowly; this extension folds the instantaneous leftover
    /// capacity into the score.
    ReliabilitySpeed,
}

/// A job-placement engine over a set of nodes.
#[derive(Debug)]
pub struct JobScheduler {
    policy: SchedulingPolicy,
    rng: Xoshiro256,
    rr_cursor: usize,
    /// Scheduling rounds seen so far (one per [`JobScheduler::choose`]).
    round: u64,
    /// Nodes whose queries keep failing, barred with exponential backoff.
    blacklist: HashMap<u64, BlacklistEntry>,
    /// Checkpointing applied to jobs at placement time.
    pub checkpoint: CheckpointPolicy,
}

impl JobScheduler {
    /// Creates a scheduler with the given policy; `seed` only matters for
    /// [`SchedulingPolicy::Random`].
    #[must_use]
    pub fn new(policy: SchedulingPolicy, seed: u64) -> JobScheduler {
        JobScheduler {
            policy,
            rng: Xoshiro256::seed_from_u64(seed),
            rr_cursor: 0,
            round: 0,
            blacklist: HashMap::new(),
            checkpoint: CheckpointPolicy::None,
        }
    }

    /// Sets the checkpoint policy applied at placement time.
    #[must_use]
    pub fn with_checkpoint_policy(mut self, policy: CheckpointPolicy) -> JobScheduler {
        self.checkpoint = policy;
        self
    }

    /// Configures a job's checkpointing for a placement on `node`,
    /// consulting the node's prediction when the policy is adaptive.
    pub fn configure_job(&self, node: &HostNode, job: GuestJob) -> GuestJob {
        let tr = match self.checkpoint {
            CheckpointPolicy::Adaptive { .. } => node
                .predict_tr(reliability_horizon(job.remaining_secs()))
                .ok(),
            _ => None,
        };
        self.checkpoint.apply(job, tr)
    }

    /// The active policy.
    #[must_use]
    pub fn policy(&self) -> SchedulingPolicy {
        self.policy
    }

    /// Chooses a node index for `job` among `nodes`, or `None` when no node
    /// can accept it right now. As long as any candidate exists, the
    /// prediction-driven policies always return a decision: failed queries
    /// feed the blacklist instead of silently becoming invented TRs.
    pub fn choose(&mut self, nodes: &[HostNode], job: &GuestJob) -> Option<usize> {
        self.round += 1;
        let candidates: Vec<usize> = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.available())
            .map(|(i, _)| i)
            .collect();
        if candidates.is_empty() {
            return None;
        }
        match self.policy {
            SchedulingPolicy::Random => Some(candidates[self.rng.range_usize(0, candidates.len())]),
            SchedulingPolicy::RoundRobin => {
                let pick = candidates[self.rr_cursor % candidates.len()];
                self.rr_cursor += 1;
                Some(pick)
            }
            SchedulingPolicy::LeastLoaded => candidates.into_iter().min_by(|&a, &b| {
                // Probes are sanitized (non-finite loads become None), but
                // total ordering keeps even a hostile NaN from panicking.
                let la = nodes[a].current_host_load().unwrap_or(1.0);
                let lb = nodes[b].current_host_load().unwrap_or(1.0);
                la.total_cmp(&lb)
            }),
            SchedulingPolicy::MaxReliability => {
                let horizon = reliability_horizon(job.remaining_secs());
                self.prediction_pick(nodes, &candidates, horizon, false)
            }
            SchedulingPolicy::ReliabilitySpeed => {
                let horizon = reliability_horizon(job.remaining_secs());
                self.prediction_pick(nodes, &candidates, horizon, true)
            }
        }
    }

    /// The quality-tagged placement core shared by the prediction-driven
    /// policies: probe every non-blacklisted candidate, rank by
    /// `tr × confidence` (optionally × leftover speed, for
    /// [`SchedulingPolicy::ReliabilitySpeed`]), and feed query failures
    /// into the blacklist.
    fn prediction_pick(
        &mut self,
        nodes: &[HostNode],
        candidates: &[usize],
        horizon_secs: u32,
        weigh_speed: bool,
    ) -> Option<usize> {
        let probed: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&i| !self.is_barred(nodes[i].id))
            .collect();
        let skipped = candidates.len() - probed.len();
        if skipped > 0 {
            fgcs_runtime::counter_add!("sim.scheduler.blacklist_skips", skipped as u64);
        }
        let predictions = candidate_predictions(nodes, &probed, horizon_secs);
        let mut best: Option<(usize, f64)> = None;
        for (&i, prediction) in probed.iter().zip(&predictions) {
            match prediction {
                Ok(q) => {
                    self.record_query_success(nodes[i].id);
                    let mut score = q.score();
                    if weigh_speed {
                        let speed = 1.0 - nodes[i].current_host_load().unwrap_or(1.0);
                        score *= speed.max(0.0);
                    }
                    if best.map(|(_, b)| score > b).unwrap_or(true) {
                        best = Some((i, score));
                    }
                }
                Err(_) => self.record_query_failure(nodes[i].id),
            }
        }
        // A scheduler that answers "nobody" while free nodes exist would
        // stall the workload: when every probe failed (or everything is
        // barred), fall back to the first candidate deterministically and
        // let the submission attempt sort it out.
        best.map(|(i, _)| i).or_else(|| {
            fgcs_runtime::counter_add!("sim.scheduler.fallback_picks", 1);
            candidates.first().copied()
        })
    }

    /// Whether `node_id` is currently barred by the blacklist. Expired
    /// bars are re-probed on the next round (and re-barred with doubled
    /// backoff if they fail again).
    fn is_barred(&self, node_id: u64) -> bool {
        self.blacklist
            .get(&node_id)
            .is_some_and(|e| self.round < e.barred_until_round)
    }

    fn record_query_failure(&mut self, node_id: u64) {
        let entry = self.blacklist.entry(node_id).or_insert(BlacklistEntry {
            consecutive_failures: 0,
            barred_until_round: 0,
            backoff_rounds: BLACKLIST_BASE_ROUNDS,
        });
        entry.consecutive_failures += 1;
        if entry.consecutive_failures >= BLACKLIST_THRESHOLD {
            entry.barred_until_round = self.round + entry.backoff_rounds;
            entry.backoff_rounds = (entry.backoff_rounds * 2).min(BLACKLIST_MAX_ROUNDS);
            fgcs_runtime::counter_add!("sim.scheduler.blacklisted", 1);
        }
    }

    fn record_query_success(&mut self, node_id: u64) {
        self.blacklist.remove(&node_id);
    }

    /// Number of nodes currently barred by the blacklist.
    #[must_use]
    pub fn blacklisted_now(&self) -> usize {
        self.blacklist
            .values()
            .filter(|e| self.round < e.barred_until_round)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgcs_core::model::{AvailabilityModel, LoadSample};
    use fgcs_trace::MachineTrace;

    fn node_with_load(id: u64, cpu: f64, days: usize, warm: usize) -> HostNode {
        let model = AvailabilityModel::default();
        let samples = vec![
            LoadSample {
                host_cpu: cpu,
                free_mem_mb: 400.0,
                alive: true,
            };
            days * model.samples_per_day()
        ];
        let trace = MachineTrace {
            machine_id: id,
            step_secs: 6,
            first_day_index: 0,
            physical_mem_mb: 512.0,
            samples,
        };
        let mut n = HostNode::new(trace, model);
        n.warm_up(warm);
        n
    }

    #[test]
    fn least_loaded_picks_quietest() {
        let nodes = vec![
            node_with_load(0, 0.5, 1, 0),
            node_with_load(1, 0.1, 1, 0),
            node_with_load(2, 0.3, 1, 0),
        ];
        let mut s = JobScheduler::new(SchedulingPolicy::LeastLoaded, 1);
        let job = GuestJob::new(1, 600.0, 50.0);
        assert_eq!(s.choose(&nodes, &job), Some(1));
    }

    #[test]
    fn round_robin_cycles() {
        let nodes = vec![node_with_load(0, 0.1, 1, 0), node_with_load(1, 0.1, 1, 0)];
        let mut s = JobScheduler::new(SchedulingPolicy::RoundRobin, 1);
        let job = GuestJob::new(1, 600.0, 50.0);
        assert_eq!(s.choose(&nodes, &job), Some(0));
        assert_eq!(s.choose(&nodes, &job), Some(1));
        assert_eq!(s.choose(&nodes, &job), Some(0));
    }

    #[test]
    fn max_reliability_prefers_reliable_history() {
        // Node 0: history full of failures; node 1: quiet history.
        let model = AvailabilityModel::default();
        let per_day = model.samples_per_day();
        let mut bad_samples = Vec::new();
        for _ in 0..3 {
            for i in 0..per_day {
                // Heavy overload through the middle of every day.
                let cpu = if i % 200 < 60 { 0.95 } else { 0.1 };
                bad_samples.push(LoadSample {
                    host_cpu: cpu,
                    free_mem_mb: 400.0,
                    alive: true,
                });
            }
        }
        let bad_trace = MachineTrace {
            machine_id: 0,
            step_secs: 6,
            first_day_index: 0,
            physical_mem_mb: 512.0,
            samples: bad_samples,
        };
        let mut bad = HostNode::new(bad_trace, model);
        bad.warm_up(2);
        let good = node_with_load(1, 0.1, 3, 2);
        let nodes = vec![bad, good];
        let mut s = JobScheduler::new(SchedulingPolicy::MaxReliability, 1);
        let job = GuestJob::new(1, 3600.0, 50.0);
        assert_eq!(s.choose(&nodes, &job), Some(1));
    }

    #[test]
    fn reliability_speed_balances_both_signals() {
        // Node 0: quiet history but currently loaded (slow). Node 1: quiet
        // history and currently idle. The combined policy must pick node 1.
        let busy_now = node_with_load(0, 0.55, 3, 2);
        let idle_now = node_with_load(1, 0.05, 3, 2);
        let nodes = vec![busy_now, idle_now];
        let mut s = JobScheduler::new(SchedulingPolicy::ReliabilitySpeed, 1);
        let job = GuestJob::new(1, 3600.0, 50.0);
        assert_eq!(s.choose(&nodes, &job), Some(1));
    }

    #[test]
    fn no_free_node_returns_none() {
        let mut busy = node_with_load(0, 0.1, 1, 0);
        busy.submit(GuestJob::new(9, 1e9, 50.0)).unwrap();
        let nodes = vec![busy];
        let mut s = JobScheduler::new(SchedulingPolicy::Random, 1);
        assert_eq!(s.choose(&nodes, &GuestJob::new(1, 10.0, 50.0)), None);
    }

    #[test]
    fn unreachable_node_is_blacklisted_with_backoff() {
        use fgcs_runtime::fault::FaultPlan;
        // Node 0 is permanently blacked out; node 1 is healthy. The
        // prediction policy must keep picking node 1, and after
        // BLACKLIST_THRESHOLD failed probes node 0 gets barred.
        let dark_plan = FaultPlan {
            blackout_rate: 1.0,
            blackout_len: 10,
            ..FaultPlan::none(1)
        };
        let dark = {
            let model = AvailabilityModel::default();
            let trace = MachineTrace {
                machine_id: 0,
                step_secs: 6,
                first_day_index: 0,
                physical_mem_mb: 512.0,
                samples: vec![LoadSample::idle(400.0); model.samples_per_day()],
            };
            HostNode::new(trace, model).with_fault_injector(dark_plan)
        };
        let healthy = node_with_load(1, 0.1, 3, 2);
        let nodes = vec![dark, healthy];
        let mut s = JobScheduler::new(SchedulingPolicy::MaxReliability, 1);
        let job = GuestJob::new(1, 600.0, 50.0);
        for _ in 0..BLACKLIST_THRESHOLD {
            assert_eq!(s.choose(&nodes, &job), Some(1));
        }
        assert_eq!(s.blacklisted_now(), 1);
        // While barred, the dark node is not even probed but the pick
        // stays correct.
        assert_eq!(s.choose(&nodes, &job), Some(1));
    }

    #[test]
    fn all_probes_failing_still_yields_a_decision() {
        use fgcs_runtime::fault::FaultPlan;
        let model = AvailabilityModel::default();
        let dark_plan = FaultPlan {
            blackout_rate: 1.0,
            blackout_len: 10,
            ..FaultPlan::none(1)
        };
        let nodes: Vec<HostNode> = (0..2u64)
            .map(|id| {
                let trace = MachineTrace {
                    machine_id: id,
                    step_secs: 6,
                    first_day_index: 0,
                    physical_mem_mb: 512.0,
                    samples: vec![LoadSample::idle(400.0); model.samples_per_day()],
                };
                HostNode::new(trace, model).with_fault_injector(dark_plan.clone())
            })
            .collect();
        let mut s = JobScheduler::new(SchedulingPolicy::MaxReliability, 1);
        let job = GuestJob::new(1, 600.0, 50.0);
        // Every probe fails, and eventually every node is barred — the
        // scheduler must still return a deterministic decision each round.
        for _ in 0..20 {
            assert_eq!(s.choose(&nodes, &job), Some(0));
        }
    }

    #[test]
    fn degraded_history_loses_to_exact_history() {
        // Node 0 has no history at all (prior-quality answer); node 1 has
        // a healthy warm history (exact answer). Even though the prior TR
        // on a quiet trace could be numerically close, the confidence
        // discount must push the pick to the exact node.
        let cold = node_with_load(0, 0.1, 3, 0);
        let warm = node_with_load(1, 0.1, 3, 2);
        let nodes = vec![cold, warm];
        let mut s = JobScheduler::new(SchedulingPolicy::MaxReliability, 1);
        let job = GuestJob::new(1, 600.0, 50.0);
        assert_eq!(s.choose(&nodes, &job), Some(1));
    }

    #[test]
    fn qualified_cluster_sweep_matches_sequential() {
        let nodes: Vec<HostNode> = (0..5u64)
            .map(|i| node_with_load(i, 0.1 + 0.05 * i as f64, 3, 2))
            .collect();
        let swept = predict_cluster_qualified(&nodes, 3600);
        for (node, result) in nodes.iter().zip(&swept) {
            let seq = node.predict_tr_qualified(3600).unwrap();
            let par = result.as_ref().unwrap();
            assert_eq!(par.tr.to_bits(), seq.tr.to_bits());
            assert_eq!(par.quality, seq.quality);
        }
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let nodes = vec![
            node_with_load(0, 0.1, 1, 0),
            node_with_load(1, 0.1, 1, 0),
            node_with_load(2, 0.1, 1, 0),
        ];
        let job = GuestJob::new(1, 10.0, 50.0);
        let picks_a: Vec<_> = {
            let mut s = JobScheduler::new(SchedulingPolicy::Random, 42);
            (0..10).map(|_| s.choose(&nodes, &job)).collect()
        };
        let picks_b: Vec<_> = {
            let mut s = JobScheduler::new(SchedulingPolicy::Random, 42);
            (0..10).map(|_| s.choose(&nodes, &job)).collect()
        };
        assert_eq!(picks_a, picks_b);
    }
}
