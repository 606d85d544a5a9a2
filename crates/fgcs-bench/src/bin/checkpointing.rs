//! Extension experiment: failure-aware (prediction-driven) checkpointing —
//! the proactive job management the paper motivates in §1 and defers to
//! future work in §8.
//!
//! The same workload of long guest jobs runs on the same cluster four
//! times: without checkpointing, with a fixed interval, with the adaptive
//! interval derived from the predicted temporal reliability via Young's
//! formula, and with that interval plus proactive migration
//! ([`MigrationPolicy::conservative`]). Metrics: completions, kills,
//! migrations, mean response time and checkpointing overhead paid. The
//! closing comment is computed from the table.
//!
//! Run: `cargo run --release -p fgcs-bench --bin checkpointing
//!       [--machines N] [--days D]`

use fgcs_bench::flag;
use fgcs_core::model::AvailabilityModel;
use fgcs_sim::{
    CheckpointPolicy, Cluster, JobScheduler, JobSpec, MigrationPolicy, SchedulingPolicy,
};
use fgcs_trace::{generate_cluster, TraceConfig};

fn main() {
    let _metrics = fgcs_bench::MetricsExport::from_args();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let machines: usize = flag(&args, "--machines").unwrap_or(6);
    let total_days: usize = flag(&args, "--days").unwrap_or(21);
    let warm_days = 14.min(total_days.saturating_sub(3));

    let model = AvailabilityModel::default();
    let traces = generate_cluster(&TraceConfig::lab_machine(7), machines, total_days);
    let step = traces[0].step_secs;
    let per_day = traces[0].samples_per_day() as u64;

    // Long jobs (4 h of work), four per working day — long enough that a
    // kill without checkpointing wastes hours.
    let mut jobs = Vec::new();
    let mut id = 0u64;
    for day in warm_days as u64..total_days as u64 {
        for slot in 0..4u64 {
            id += 1;
            jobs.push(JobSpec::new(
                id,
                4.0 * 3600.0,
                80.0,
                day * per_day + slot * (6 * 3600 / u64::from(step)),
            ));
        }
    }

    println!(
        "# Failure-aware checkpointing: {} jobs of 4 h on {machines} machines, days {warm_days}..{total_days}",
        jobs.len()
    );
    println!(
        "{:<22} {:>10} {:>8} {:>6} {:>12} {:>14}",
        "policy", "completed", "kills", "migr", "mean_resp_h", "cp_overhead_s"
    );

    let policies = [
        ("none", CheckpointPolicy::None, None),
        (
            "fixed(30min)",
            CheckpointPolicy::Fixed {
                interval_secs: 1800.0,
                cost_secs: 30.0,
            },
            None,
        ),
        ("adaptive(Young)", CheckpointPolicy::adaptive(), None),
        (
            "adaptive+migration",
            CheckpointPolicy::adaptive(),
            Some(MigrationPolicy::conservative()),
        ),
    ];

    let mut rows = Vec::new();
    for (name, policy, migration) in policies {
        let mut cluster = Cluster::from_traces(traces.clone(), model);
        cluster.warm_up(warm_days);
        let mut scheduler =
            JobScheduler::new(SchedulingPolicy::MaxReliability, 99).with_checkpoint_policy(policy);
        let records = cluster.run_workload_with_migration(jobs.clone(), &mut scheduler, migration);
        let completed: Vec<_> = records
            .iter()
            .filter(|r| r.completed_tick.is_some())
            .collect();
        let kills: usize = records.iter().map(|r| r.kills).sum();
        let responses: Vec<f64> = completed
            .iter()
            .filter_map(|r| r.response_secs(step))
            .collect();
        let mean_resp = if responses.is_empty() {
            f64::NAN
        } else {
            fgcs_math::stats::mean(&responses) / 3600.0
        };
        let overhead: f64 = records.iter().map(|r| r.checkpoint_overhead_secs).sum();
        let migrations: usize = records.iter().map(|r| r.migrations).sum();
        println!(
            "{:<22} {:>10} {:>8} {:>6} {:>12.2} {:>14.0}",
            name,
            completed.len(),
            kills,
            migrations,
            mean_resp,
            overhead,
        );
        rows.push(Row {
            completed: completed.len(),
            kills,
            migrations,
            mean_resp,
            overhead,
        });
    }
    let [none, fixed, adaptive, migrating] = [&rows[0], &rows[1], &rows[2], &rows[3]];
    println!(
        "# checkpointing cuts the mean response from {:.2} h (none) to {:.2} h (fixed) and",
        none.mean_resp, fixed.mean_resp
    );
    let verdict = if adaptive.completed >= fixed.completed && adaptive.mean_resp < fixed.mean_resp {
        "beats"
    } else {
        "does not beat"
    };
    println!(
        "# {:.2} h (adaptive), kills {} -> {}. The predicted-risk interval {verdict}",
        adaptive.mean_resp, none.kills, adaptive.kills
    );
    println!(
        "# the fixed one: {} vs {} completions for {:.0} vs {:.0} s of checkpoints.",
        adaptive.completed, fixed.completed, adaptive.overhead, fixed.overhead
    );
    println!(
        "# Proactive migration (below TR {}) moved {} jobs{}",
        MigrationPolicy::conservative().tr_threshold,
        migrating.migrations,
        if migrating == adaptive {
            ", so its row equals adaptive's."
        } else {
            "."
        }
    );
}

/// One policy's table row.
#[derive(PartialEq)]
struct Row {
    completed: usize,
    kills: usize,
    migrations: usize,
    mean_resp: f64,
    overhead: f64,
}
