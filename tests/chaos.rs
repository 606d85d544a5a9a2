//! Chaos-campaign integration suite: the robustness acceptance criteria.
//!
//! * a 10k-step seeded campaign fires *every* monitor fault class, repairs
//!   exactly the readings the value faults corrupted, and completes with
//!   no panics and only in-range, quality-tagged TRs,
//! * the same seed reproduces byte-identical metrics,
//! * a zero-fault plan is bit-identical to the unfaulted pipeline,
//! * two golden campaigns print the same report, digest included.

use std::sync::Mutex;

use fgcs::runtime::fault::FaultPlan;
use fgcs::runtime::metrics;
use fgcs::sim::{run_campaign, ChaosConfig, ChaosReport};

/// Serializes the tests in this binary: campaigns and the metrics
/// byte-identity check both touch the process-wide registry.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// An aggressive plan touching every fault category at rates high enough
/// that a 10k-step campaign statistically cannot miss any of them.
fn everything_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        nan_rate: 0.02,
        inf_rate: 0.01,
        out_of_range_rate: 0.02,
        drop_rate: 0.02,
        duplicate_rate: 0.02,
        stuck_rate: 0.005,
        outage_rate: 0.002,
        blackout_rate: 0.001,
        ..FaultPlan::chaos(seed)
    }
}

#[test]
fn ten_thousand_step_campaign_upholds_all_invariants() {
    let _guard = lock();
    let config = ChaosConfig {
        steps: 10_000,
        ..ChaosConfig::new(20_060_625)
    }
    .with_plan(everything_plan(20_060_625));
    let registry = metrics::registry();
    registry.reset();
    metrics::set_enabled(true);
    let report = run_campaign(&config);
    metrics::set_enabled(false);
    let count = |name: &str| registry.counter(name).get();
    // No panics (we got here), every TR in range.
    assert_eq!(report.steps, 10_000);
    assert_eq!(report.out_of_range, 0, "{report:?}");
    assert!(report.invariants_hold(), "{report:?}");
    assert!((0.0..=1.0).contains(&report.tr_min), "{report:?}");
    assert!((0.0..=1.0).contains(&report.tr_max), "{report:?}");
    // The campaign actually predicted and scheduled.
    assert!(report.predictions > 0);
    assert_eq!(
        report.predictions,
        report.exact + report.widened + report.prior,
        "every prediction carries exactly one quality tag: {report:?}"
    );
    assert_eq!(report.decisions + report.no_candidate_rounds, 200);
    assert_eq!(report.submitted + report.submit_rejected, report.decisions);
    // Every fault class the plan sets fired at the nodes' monitors.
    for class in [
        "nan_values",
        "inf_values",
        "out_of_range_values",
        "dropped_samples",
        "duplicated_samples",
        "stuck_samples",
        "outage_samples",
        "blackout_steps",
    ] {
        let name = format!("runtime.fault.{class}");
        assert!(count(&name) > 0, "{name} never fired");
    }
    // The monitor is the only place faults enter, so it repaired exactly
    // the readings the value faults corrupted.
    let corrupted = count("runtime.fault.nan_values")
        + count("runtime.fault.inf_values")
        + count("runtime.fault.out_of_range_values");
    assert_eq!(corrupted, count("sim.monitor.insane_repaired"));
}

#[test]
fn same_seed_reproduces_byte_identical_metrics() {
    let _guard = lock();
    let config = ChaosConfig {
        steps: 2_000,
        machines: 3,
        ..ChaosConfig::new(7)
    };
    let registry = metrics::registry();
    let run = || {
        registry.reset();
        metrics::set_enabled(true);
        let report = run_campaign(&config);
        metrics::set_enabled(false);
        let snapshot = registry.snapshot();
        let json = snapshot.deterministic_json().to_string();
        (report, snapshot, json)
    };
    let (report_a, snapshot_a, metrics_a) = run();
    let (report_b, _, metrics_b) = run();
    assert_eq!(report_a, report_b, "reports diverged between reruns");
    assert_eq!(report_a.digest, report_b.digest);
    assert_eq!(metrics_a, metrics_b, "metrics diverged between reruns");
    // The campaign left fault-injection fingerprints in the registry.
    let injected: u64 = snapshot_a
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("runtime.fault."))
        .map(|(_, total)| total)
        .sum();
    assert!(injected > 0, "no fault metrics recorded: {metrics_a}");
}

#[test]
fn zero_fault_plan_is_bit_identical_to_unfaulted_pipeline() {
    let _guard = lock();
    let base = ChaosConfig {
        steps: 2_000,
        machines: 3,
        ..ChaosConfig::new(11)
    };
    let registry = metrics::registry();
    let run = |config: &ChaosConfig| {
        registry.reset();
        metrics::set_enabled(true);
        let report = run_campaign(config);
        metrics::set_enabled(false);
        let snapshot = registry.snapshot();
        let json = snapshot.deterministic_json().to_string();
        (report, snapshot, json)
    };
    let (zero_report, zero_snapshot, zero_metrics) =
        run(&base.clone().with_plan(FaultPlan::none(11)));
    let (plain_report, _, plain_metrics) = run(&base.clone().without_faults());
    assert_eq!(
        zero_report, plain_report,
        "zero-fault campaign diverged from the unfaulted pipeline"
    );
    assert_eq!(zero_report.digest, plain_report.digest);
    assert_eq!(
        zero_metrics, plain_metrics,
        "zero-fault plan left metric fingerprints"
    );
    // reset() keeps names registered by earlier tests at zero, so assert
    // on values: a zero-rate plan must never draw or count anything.
    for (name, total) in &zero_snapshot.counters {
        if name.starts_with("runtime.fault.") {
            assert_eq!(*total, 0, "zero-rate plan counted {name}");
        }
    }
}

#[test]
fn different_seeds_produce_different_campaigns() {
    let _guard = lock();
    let a = run_campaign(&ChaosConfig {
        steps: 1_000,
        ..ChaosConfig::new(1)
    });
    let b = run_campaign(&ChaosConfig {
        steps: 1_000,
        ..ChaosConfig::new(2)
    });
    assert_ne!(a.digest, b.digest, "campaigns collapsed across seeds");
}

/// The report's keys as `(name, value)` pairs, floats by their bits, so a
/// golden comparison names every key that moved.
fn keys(r: &ChaosReport) -> Vec<(&'static str, u64)> {
    vec![
        ("steps", r.steps),
        ("decisions", r.decisions),
        ("no_candidate_rounds", r.no_candidate_rounds),
        ("predictions", r.predictions),
        ("out_of_range", r.out_of_range),
        ("blackout_rejections", r.blackout_rejections),
        ("exact", r.exact),
        ("widened", r.widened),
        ("prior", r.prior),
        ("tr_min", r.tr_min.to_bits()),
        ("tr_max", r.tr_max.to_bits()),
        ("submitted", r.submitted),
        ("submit_rejected", r.submit_rejected),
        ("completed", r.completed),
        ("killed", r.killed),
        ("digest", r.digest),
    ]
}

/// Pins two whole campaigns, digest included: the CI smoke seed, and a
/// one-machine run with no warm-up long enough to reach every quality
/// tier. A change that moves one decision or one TR bit fails here, where
/// the relative checks above (same seed twice, zero plan against none)
/// cannot see it.
#[test]
fn golden_campaigns_keep_every_key() {
    let _guard = lock();
    let ci = run_campaign(&ChaosConfig {
        machines: 4,
        steps: 2_000,
        ..ChaosConfig::new(20_060_625)
    });
    let expected = [
        ("steps", 2_000),
        ("decisions", 30),
        ("no_candidate_rounds", 10),
        ("predictions", 288),
        ("out_of_range", 0),
        ("blackout_rejections", 32),
        ("exact", 288),
        ("widened", 0),
        ("prior", 0),
        ("tr_min", 0.0f64.to_bits()),
        ("tr_max", 1.0f64.to_bits()),
        ("submitted", 25),
        ("submit_rejected", 5),
        ("completed", 14),
        ("killed", 7),
        ("digest", 12_990_550_845_966_926_020),
    ];
    assert_eq!(keys(&ci), expected);

    let tiers = run_campaign(&ChaosConfig {
        machines: 1,
        steps: 30_000,
        warmup_days: 0,
        ..ChaosConfig::new(7)
    });
    let expected = [
        ("steps", 30_000),
        ("decisions", 110),
        ("no_candidate_rounds", 490),
        ("predictions", 1_135),
        ("out_of_range", 0),
        ("blackout_rejections", 65),
        ("exact", 576),
        ("widened", 7),
        ("prior", 552),
        ("tr_min", 0.0f64.to_bits()),
        ("tr_max", 1.0f64.to_bits()),
        ("submitted", 94),
        ("submit_rejected", 16),
        ("completed", 57),
        ("killed", 36),
        ("digest", 14_089_668_343_647_993_941),
    ];
    assert_eq!(keys(&tiers), expected);
}
