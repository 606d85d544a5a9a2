//! Wire-level benchmark of `fgcs serve`.
//!
//! An in-process `Server::open` + `Server::serve_tcp` on `127.0.0.1:0` is
//! driven over real TCP by one of four seeded workloads (see
//! `workload.rs` and the README). Usage, from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path examples/benchmark/Cargo.toml -- \
//!     --workload query_hot --seed 1 [--seconds 15] [--trace 0|1] \
//!     [--json RESULTS.jsonl] [--trace-out SPANS.jsonl] [--smoke]
//! ... -- compare PARENT.jsonl CHANGE.jsonl
//! ... -- synth-stats [--seed N]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the program's metrics
//! off; `--trace 1` is the per-layer replay. Each prints
//! `workload metric value unit` lines, then one JSON result line.

mod catalog;
mod client;
mod compare;
mod oracle;
mod run;
mod server;
mod stats;
mod synth;
mod sys;
mod trace;
mod workload;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use run::{Metric, Profile, Report};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        json: None,
        trace_out: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            out.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => out.workload.clone_from(value),
            "--seed" => out.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(out.seconds >= 1.0 && out.seconds <= 600.0) {
                    return Err(bad(&"must be within 1..=600"));
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--json" => out.json = Some(PathBuf::from(value)),
            "--trace-out" => out.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(out)
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                fgcs::runtime::json::Json::F64(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
fn result_line(report: &Report) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        json_metrics(&report.metrics)
    )
}

fn measure(args: &Args) -> Result<Report, String> {
    let w = workload::by_name(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("--workload must be one of {}", names.join(", "))
    })?;
    let profile = if args.smoke {
        Profile::smoke()
    } else {
        Profile::full(args.seconds, w.rounds)
    };
    let (report, catalog) = if args.trace {
        let out = args
            .trace_out
            .clone()
            .unwrap_or_else(|| PathBuf::from(format!(".bench_out/spans-{}.jsonl", w.name)));
        (
            trace::trace(w, args.seed, &profile, &out),
            catalog::PER_LAYER,
        )
    } else {
        (run::run(w, args.seed, &profile), catalog::END_TO_END)
    };
    let report = report.map_err(|e| format!("{}: {e}", w.name))?;
    let printed: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
    let listed: Vec<(&str, &str)> = catalog.iter().map(|d| (d.name, d.unit)).collect();
    if printed != listed {
        return Err(format!(
            "metrics {printed:?} differ from the catalog {listed:?}"
        ));
    }
    Ok(report)
}

fn synth_stats(args: &[String]) -> Result<String, String> {
    let seed = match args {
        [] => 1,
        [flag, v] if flag == "--seed" => v.parse().map_err(|e| format!("--seed {v}: {e}"))?,
        _ => return Err("usage: synth-stats [--seed N]".into()),
    };
    let mut out = String::from("source state share(S1..S5) mean_run_samples(S1..S5)\n");
    let mut row = |label: &str, digits: &[u8]| {
        let (mix, runs) = synth::state_stats(digits);
        let f = |v: [f64; 5], p: usize| v.map(|x| format!("{x:.p$}")).join(" ");
        out.push_str(&format!("{label} {} | {}\n", f(mix, 4), f(runs, 1)));
    };
    let mut digits = Vec::new();
    for host in 0..256 {
        for day in 0..u64::from(workload::WARM_DAYS) {
            synth::write_day(seed, host, day, &mut digits);
        }
    }
    row("benchmark-synth(256 hosts x 14 days)", &digits);
    let model = fgcs::core::model::AvailabilityModel::default();
    digits.clear();
    for machine in 0..16 {
        let cfg = fgcs::trace::TraceConfig::lab_machine(seed).with_machine_id(machine);
        let history = fgcs::trace::TraceGenerator::new(cfg)
            .generate_days(workload::WARM_DAYS as usize)
            .to_history(&model)
            .map_err(|e| e.to_string())?;
        for day in history.days() {
            digits.extend(day.log.states().iter().map(|s| b'1' + s.index() as u8));
        }
    }
    row("fgcs-trace lab_machine(16 machines x 14 days)", &digits);
    Ok(out)
}

fn main() -> ExitCode {
    // Before any thread starts: threads inherit the timer slack, and
    // mallopt is not meant to race with allocations on other threads.
    sys::precise_sleeps();
    sys::keep_freed_memory();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [parent, change] => compare::compare(parent, change).map(|t| print!("{t}")),
            _ => Err("usage: compare PARENT.jsonl CHANGE.jsonl".into()),
        },
        Some("synth-stats") => synth_stats(&args[1..]).map(|t| print!("{t}")),
        _ => parse(&args).and_then(|a| {
            let report = measure(&a)?;
            for m in report.metrics.iter().chain(&report.notes) {
                println!("{} {} {} {}", a.workload, m.name, m.value, m.unit);
            }
            if let Some(e) = &report.first_error {
                eprintln!("{}: wrong answer: {e}", a.workload);
            }
            let result = result_line(&report);
            if let Some(path) = &a.json {
                // The result line, labelled for `compare`.
                let line = format!(
                    "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},{}\n",
                    a.workload,
                    a.seed,
                    a.trace,
                    &result[1..]
                );
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .and_then(|mut f| f.write_all(line.as_bytes()))
                    .map_err(|e| format!("{}: {e}", path.display()))?;
            }
            println!("{result}");
            Ok(())
        }),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{MetricDef, END_TO_END, PER_LAYER};

    fn assert_catalog(report: &Report, defs: &[MetricDef], label: &str) {
        let got: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
        let want: Vec<(&str, &str)> = defs.iter().map(|d| (d.name, d.unit)).collect();
        assert_eq!(got, want, "{label}");
        assert!(
            report.metrics.iter().all(|m| m.value.is_finite()),
            "{label}: {:?}",
            report.metrics
        );
        assert_eq!(report.failed, 0, "{label}: {:?}", report.first_error);
        assert!(report.attempted > 0, "{label}");
    }

    /// Every workload, untraced then traced, on the smoke profile: each
    /// prints exactly its catalog with units, and answers all correctly.
    /// One test, sequential: the traced run reads process-wide counters.
    #[test]
    fn smoke_profile_prints_every_metric_with_zero_errors() {
        let spans = PathBuf::from(format!(
            ".bench_out/test-spans-{}.jsonl",
            std::process::id()
        ));
        for (i, w) in workload::WORKLOADS.iter().enumerate() {
            let report = run::run(w, 1, &Profile::smoke()).expect("run");
            assert_catalog(&report, END_TO_END, w.name);
            // End-to-end values are never 0: a zero would mean a clock or
            // counter was not read. The exception is `rss_mb` after the
            // first workload: a benchmark process runs one workload, but
            // here a later one may fit its small smoke server into memory
            // an earlier one freed.
            assert!(
                report
                    .metrics
                    .iter()
                    .all(|m| m.value > 0.0 || (m.name == "rss_mb" && i > 0)),
                "{}: {:?}",
                w.name,
                report.metrics
            );
            let line = result_line(&report);
            let doc = fgcs::runtime::json::Json::parse(&line).expect("result line parses");
            assert_eq!(
                doc.field("correct").ok(),
                Some(&fgcs::runtime::json::Json::Bool(true))
            );

            let traced = trace::trace(w, 1, &Profile::smoke(), &spans).expect("trace");
            assert_catalog(&traced, PER_LAYER, w.name);
            let value = |name: &str| {
                traced
                    .metrics
                    .iter()
                    .find(|m| m.name == name)
                    .map(|m| m.value)
            };
            match w.kind {
                workload::Kind::QueryHot => {
                    assert!(value("cache.qh_hit_ratio") >= Some(0.99));
                    assert_eq!(value("cache.solver_runs_per_predict"), Some(0.0));
                }
                workload::Kind::ColdWindow => assert!(value("cache.qh_hit_ratio") <= Some(0.05)),
                workload::Kind::DayRollover => {
                    // Traced requests are whole (ingest, batch) units; every
                    // batch rebuilds its four kernels.
                    let units = value("trace.requests").map(|n| n / 2.0);
                    assert!(units > Some(0.0));
                    assert_eq!(value("estimator.rebuilds"), units.map(|u| 4.0 * u));
                }
                workload::Kind::IngestDurable => assert!(value("wal.append_us") > Some(0.0)),
            }
        }
        let _ = std::fs::remove_file(&spans);
    }

    #[test]
    fn flags_parse_and_reject_bad_values() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse(&args(
            "--workload query_hot --seed 7 --seconds 12 --trace 1",
        ))
        .expect("parse");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("query_hot", 7, 12.0, true)
        );
        assert!(parse(&args("--trace 2")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
        assert!(parse(&args("--bogus 1")).is_err());
    }
}
