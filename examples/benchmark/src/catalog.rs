//! The metric catalog: every metric the benchmark reports, with its unit,
//! direction and (end-to-end only) regression bound. `BENCHMARK.json` at
//! the repository root records the same table; a test keeps them equal.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Printed by the untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    e2e("server_cpu_us", "us", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("rss_mb", "MB", Lower, 0.05),
];

/// Printed by the traced run (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    layer("transport.self_us", "us/req", Lower),
    layer("transport.gen_lag_p99_us", "us", Lower),
    layer("wire.self_us", "us/req", Lower),
    layer("json.scan_us", "us/call", Lower),
    layer("wire.decode_states_us", "us/call", Lower),
    layer("wire.read_buf_hwm", "bytes", Lower),
    layer("registry.ingest_us", "us/call", Lower),
    layer("registry.predict_us", "us/call", Lower),
    layer("registry.sweep_us", "us/call", Lower),
    layer("registry.batch_us", "us/call", Lower),
    layer("registry.self_us", "us/req", Lower),
    layer("cache.qh_hit_ratio", "ratio", Higher),
    layer("cache.dedup_hit_ratio", "ratio", Higher),
    layer("cache.qh_evictions", "count", Lower),
    layer("cache.solver_runs_per_predict", "ratio", Lower),
    layer("cache.intern_us", "us/call", Lower),
    layer("cache.lookup_us", "us/req", Lower),
    layer("estimator.sync_us", "us/call", Lower),
    layer("estimator.build_us", "us/call", Lower),
    layer("estimator.fullscan_us", "us/call", Lower),
    layer("estimator.rebuilds", "count", Lower),
    layer("estimator.fullscan_fallbacks", "count", Lower),
    layer("solver.tr_us", "us/call", Lower),
    layer("solver.curve_us", "us/call", Lower),
    layer("solver.steps_per_predict", "steps", Lower),
    layer("wal.append_us", "us/call", Lower),
    layer("wal.sync_us", "us/call", Lower),
    layer("wal.bytes_per_user_byte", "ratio", Lower),
    layer("wal.unsynced_records", "count", Lower),
    layer("wal.snapshots", "count", Lower),
    layer("wal.replay_days_per_s", "days/s", Higher),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.requests", "count", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use fgcs::runtime::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn entries<'j>(doc: &'j Json, key: &str) -> &'j [Json] {
        match doc.field(key) {
            Ok(Json::Arr(items)) => items,
            other => panic!("{key}: {other:?}"),
        }
    }

    fn check(doc: &Json, key: &str, defs: &[MetricDef]) {
        let items = entries(doc, key);
        assert_eq!(items.len(), defs.len(), "{key} length");
        for (item, def) in items.iter().zip(defs) {
            let name: String = item.get("name").expect("name");
            let unit: String = item.get("unit").expect("unit");
            let better: String = item.get("better").expect("better");
            assert_eq!((name.as_str(), unit.as_str()), (def.name, def.unit));
            assert_eq!(better, def.better.label(), "{name}");
            let bound: Option<f64> = item.get_opt("bound").expect("bound");
            assert_eq!(bound, def.bound, "{name}");
        }
    }

    #[test]
    fn benchmark_json_records_this_catalog() {
        let doc = benchmark_json();
        check(&doc, "end_to_end", END_TO_END);
        check(&doc, "per_layer", PER_LAYER);
        let workloads: Vec<String> = entries(&doc, "workloads")
            .iter()
            .map(|w| w.get("name").expect("workload name"))
            .collect();
        let ours: Vec<&str> = crate::workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_and_units_fit_the_result_format() {
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(def.name.len() <= 64 && def.unit.len() <= 16, "{def:?}");
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
