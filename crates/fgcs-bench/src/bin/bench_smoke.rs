//! Bench smoke: the workspace's micro-benchmarks, each bounded to a few
//! milliseconds per sample, emitting a baseline file with one ns/op figure
//! per bench, plus the check on the wire benchmark's result lines. The
//! committed `BENCH_baseline.json` is the perf-trajectory artifact: CI
//! writes a fresh run to `.bench_out/bench_smoke.json` and checks it
//! `--against` the committed file, and re-recording that file is a
//! deliberate `bench_smoke --out BENCH_baseline.json`. Every form names
//! the file it writes or reads; any other flag combination, no flag at
//! all included, prints this usage and exits 1 without writing anything:
//!
//! ```text
//! bench_smoke --out PATH                   # run the benches, write PATH
//! bench_smoke --check PATH                 # validate a baseline file, exit 1 on problems
//! bench_smoke --check PATH --against OLD   # also flag >1.25x regressions vs OLD
//! bench_smoke --wire RESULTS --against REF # gate examples/benchmark result lines
//! bench_smoke --wire RESULTS --out REF     # write each workload's medians to REF
//! ```
//!
//! It is the workspace's one micro-timer; the figure bins time the
//! paper's figures (`fig4_overhead`: solve time against window length and
//! the solver ablation). Besides the solver, estimation, query and ingest
//! keys it times the online `StateManager::observe` step
//! (`state_manager/online_step`, the §7.1 monitoring overhead). It also
//! measures the metrics subsystem's overhead on a miniature Fig. 5 sweep —
//! run with the registry disabled vs enabled — and exports it as
//! `metrics_overhead_pct`, which `--check` asserts stays below 5 %.
//!
//! Before anything is timed, the fast-path solver ([`FastSolver`]) is
//! asserted within its 1e-12 unit-scale error budget of one paper-order
//! [`SparseSolver::tr_curve`] run: its curve at every horizon up to the
//! 2-hour window and its scalar solve at each of the 16 sweep horizons,
//! from both initial states. It runs on the timed kernel, whose failure
//! mass starts at holding time 1, and on two variants of it: failure mass
//! moved three quarters of the window later, and none.
//!
//! The benches are timed in round-robin rounds, one sample of each per
//! round, so every bench's samples spread over the whole run. Every
//! sample runs right after one pass of a fixed arithmetic calibration
//! workload. A bench's figure is its fastest sample divided by the
//! machine factor of the fastest pass interleaved with it (the pass's
//! time over the reference machine's), so the baseline holds ns/op at
//! `machine_factor` 1.0; the file's `machine_factor` is the run's fastest
//! pass. `--check` enforces *absolute* gates on those figures — on the
//! fast path (`smp_solver/fast_2h` under 24 µs and
//! `smp_solver/batched_sweep_2h` under 25 µs), on kernel estimation
//! (`qh_estimation/2h`, the full scan over the stored runs, and
//! `qh_estimation/rebuild_2h`, the incremental estimator's rebuild), on
//! the deduped 1000-host scheduling sweep (`cluster_sweep_1k_hosts`), on
//! the durable ingest's byte path (`ingest_bytes/…`: one 14 400-sample
//! ingest line framed out of the connection's read buffer, the line
//! scanned and its digits cut into the runs the history stores, and one
//! run-form WAL frame built in memory) and on the request decode
//! (`wire_decode/…`: a predict line and an 8-predict batch line, each
//! scanned once with its fields captured, and read as the server reads
//! them) — and `--against` compares two baselines key by key.
//!
//! `--wire` is the served path's gate. `examples/benchmark --json`
//! appends one result line per workload run; `--against` checks each
//! line against the per-workload medians committed in `BENCH_wire.json`
//! (ten runs at the CI settings, written by `--wire … --out`). Every
//! committed workload needs a line, and every line needs `correct: true`,
//! `failed: 0`, `rss_mb` within the BENCHMARK.json bound (1.05x) and
//! `server_cpu_us` and `setup_s` within 3x. On one machine all three
//! repeat within a few percent; across machines `rss_mb` agrees within a
//! fraction of a percent but the two time metrics read up to about 2x
//! apart, so their bound is a tripwire above that spread. Smaller
//! regressions are the benchmark's paired `compare` rule's to catch.

use std::hint::black_box;
use std::io::{self, BufReader, Read};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use fgcs_bench::{flag, Testbed};
use fgcs_core::cache::QhCache;
use fgcs_core::classify::StateClassifier;
use fgcs_core::log::StateLog;
use fgcs_core::model::AvailabilityModel;
use fgcs_core::predictor::{evaluate_window, SmpPredictor};
use fgcs_core::registry::encode_wal_record;
use fgcs_core::smp::{FastSolver, IncrementalEstimator, SmpParams, SolveScratch, SparseSolver};
use fgcs_core::state::{self, State};
use fgcs_core::window::{DayType, TimeWindow};
use fgcs_runtime::json::{Field, Json, JsonSlice};
use fgcs_runtime::line::{read_bounded_line, LineRead};
use fgcs_runtime::wal;
use fgcs_sim::state_manager::StateManager;
use fgcs_trace::{TraceConfig, TraceGenerator};

/// Baseline schema: v2 files hold ns/op at `machine_factor` 1.0, v1 files
/// held raw ns/op, so the two never compare.
const SCHEMA: &str = "fgcs-bench-smoke/v2";

/// Samples per bench, one per round-robin round over all benches.
const SAMPLES: usize = 121;
/// Per-sample length target: short enough that some samples of every bench
/// land in the quiet stretches of a shared machine, long enough to average
/// out timer noise.
const TARGET_SAMPLE: Duration = Duration::from_millis(2);

/// What a baseline figure is. Noise on a shared machine only ever adds
/// time, and it does not slow the benches and the calibration pass alike,
/// so a sample divided by the pass next to it stays noisy; the fastest
/// sample over the fastest pass is the code's own cost.
const UNIT: &str = "fastest-sample ns/op at machine_factor 1.0";

/// Bench keys `--check` requires: the solvers, kernel estimation, the
/// cached query, the 1000-host sweep, classification, the online
/// state-manager step, trace generation, the durable ingest's byte path
/// and the request decode.
const REQUIRED_KEYS: [&str; 16] = [
    "smp_solver/paper_eq3_2h",
    "smp_solver/fast_2h",
    "smp_solver/per_horizon_sweep_2h",
    "smp_solver/batched_sweep_2h",
    "cluster_sweep_1k_hosts",
    "qh_estimation/2h",
    "qh_estimation/rebuild_2h",
    "predictor/cached_qh",
    "classify/whole_day_offline",
    "state_manager/online_step",
    "trace_gen/machine_day_lab",
    "ingest_bytes/frame_14k",
    "ingest_bytes/scan_decode_14k",
    "ingest_bytes/wal_frame_14k",
    "wire_decode/predict_line",
    "wire_decode/batch8_line",
];

/// Enabled-vs-disabled overhead budget for the instrumented Fig. 5 sweep.
const OVERHEAD_BUDGET_PCT: f64 = 5.0;

/// Horizon count for the Fig. 5-style multi-horizon sweeps.
const SWEEP_HORIZONS: usize = 16;

/// A bench present in both baselines may grow at most this much before
/// `--against` reports a regression.
const REGRESSION_FACTOR: f64 = 1.25;

/// Absolute latency gate on the production single-horizon solve
/// (`smp_solver/fast_2h`), at `machine_factor` 1.0: about 1.6× the
/// blocked solve (14–17 µs), so a return to one stream per failure target
/// (~50 µs) fails it. The per-step gather the blocks replaced read
/// 23–25 µs on this kernel, whose failure mass starts at holding time 1,
/// so it sits at the gate; `--against`'s 1.25× check is what flags it.
const FAST_SOLVE_GATE_NS: f64 = 24_000.0;

/// Absolute latency gate on the fast multi-horizon sweep
/// (`smp_solver/batched_sweep_2h`), at `machine_factor` 1.0: about 1.6×
/// the one solve and its curve (14–18 µs), so a sweep that falls back to
/// per-horizon solves (about 8.5 full solves for 16 horizons) fails it by
/// far.
const BATCH_SWEEP_GATE_NS: f64 = 25_000.0;

/// Absolute gate on estimating one 2-h kernel from the 30-day history's
/// weekday windows (`qh_estimation/2h`: `SmpPredictor::estimate_params`,
/// the full scan behind the registry's cache misses), at `machine_factor`
/// 1.0. The scan reads each window as the stored runs clipped to it, and
/// the sparse estimator costs O(runs log runs); zero-filling and walking
/// dense per-step rows costs several times the gate.
const QH_ESTIMATION_GATE_NS: f64 = 7_000.0;

/// Absolute gate on rebuilding one 2-h kernel from a synced incremental
/// estimator (`qh_estimation/rebuild_2h`: `IncrementalEstimator::params`,
/// the registry's path after an ingest), at `machine_factor` 1.0. As for
/// the full scan, a rebuild that walks every step of the horizon costs
/// several times the gate.
const QH_REBUILD_GATE_NS: f64 = 5_000.0;

/// Median ns of [`calibration_workload`] on the reference machine the gate
/// constants were tuned against (a ~3 GHz desktop core; the workload is
/// ~4M dependent multiply–adds). A sample's machine factor is its
/// calibration pass divided by this, so a uniformly slower host (shared CI
/// runners, throttled containers) relaxes the absolute gates
/// proportionally instead of tripping them.
const CALIBRATION_REF_NS: f64 = 800_000.0;

/// `machine_factor` sanity range: outside this the calibration itself is
/// broken (a wedged machine or a corrupted baseline), not merely slow.
const MACHINE_FACTOR_RANGE: std::ops::RangeInclusive<f64> = 0.05..=20.0;

/// Unit-scale relative error budget of the fast path against the
/// paper-order oracle — must match the contract in `fgcs_core::smp::fast`.
const FAST_ERROR_BUDGET: f64 = 1e-12;

/// Hosts in the cluster-sweep bench.
const CLUSTER_HOSTS: u64 = 1000;

/// Absolute gate on the 1000-host scheduling sweep
/// (`cluster_sweep_1k_hosts`), at `machine_factor` 1.0. Cross-host kernel
/// dedup means identical hosts collapse to one solve plus O(1) memo hits
/// per remaining host; the whole sweep must finish well under the cost of
/// 1000 independent solves.
const CLUSTER_SWEEP_GATE_NS: f64 = 27_000_000.0;

/// Absolute gate on framing one 14 400-sample ingest line
/// (`ingest_bytes/frame_14k`: `read_bounded_line` cutting the line out of
/// an 8 KiB `BufReader`, as a TCP connection reads it, and copying it
/// into the read buffer), at `machine_factor` 1.0: about 1.6× its
/// 0.21–0.22 µs. The newline search tests 32 bytes per step; a search of
/// one byte per step read 3.8–4.0 µs on this bench.
const FRAME_GATE_NS: f64 = 340.0;

/// The serve transports' default `max_line_bytes`: the bound the framing
/// bench reads under.
const MAX_LINE_BYTES: usize = 8 << 20;

/// Absolute gate on reading one 14 400-sample ingest line
/// (`ingest_bytes/scan_decode_14k`: `JsonSlice::scan`, which captures the
/// `states` text as it validates it, and `StateLog::from_digits`, which
/// checks the digits and cuts them into runs in one pass), at
/// `machine_factor` 1.0: about 1.6× its 0.77–0.82 µs. The scan and the
/// cut each test a block of bytes at a time; either falling back to a
/// per-byte loop costs more than the gate. A `states` lookup that walks
/// the line a second time read 1.08 µs, which `--against`'s 1.25× check
/// flags.
const SCAN_DECODE_GATE_NS: f64 = 1_300.0;

/// Absolute gate on decoding one 83-byte predict line
/// (`wire_decode/predict_line`: `JsonSlice::scan` capturing the fields and
/// the six typed reads the server makes), at `machine_factor` 1.0: about
/// 1.5× its 101–108 ns. Getters that walk the object again per field read
/// 307 ns.
const PREDICT_DECODE_GATE_NS: f64 = 160.0;

/// Absolute gate on decoding one 8-predict batch line
/// (`wire_decode/batch8_line`: the scan, then each op captured in the walk
/// that finds its end and read as a predict), at `machine_factor` 1.0:
/// about 1.5× its 1.32–1.40 µs. Walking each op again per field read
/// 3.60 µs.
const BATCH_DECODE_GATE_NS: f64 = 2_100.0;

/// Absolute gate on building the WAL frame of one 14 400-sample day
/// (`ingest_bytes/wal_frame_14k`: the run-form record the registry writes,
/// its slicing-by-8 CRC and the frame), at `machine_factor` 1.0: about
/// 1.6× its 0.30–0.32 µs. The day's 71 runs make a 388-byte record; a
/// record of one digit per sample (14 437 bytes) cost about eight times
/// the gate.
const WAL_FRAME_GATE_NS: f64 = 500.0;

/// `BENCH_wire.json` schema.
const WIRE_SCHEMA: &str = "fgcs-bench-wire/v1";

/// The wire benchmark's gated end-to-end metrics, each with the multiple
/// of its committed median it may reach: `rss_mb` the BENCHMARK.json
/// bound, the two time metrics a cross-machine tripwire (see the module
/// docs).
const WIRE_GATES: [(&str, f64); 3] = [("server_cpu_us", 3.0), ("setup_s", 3.0), ("rss_mb", 1.05)];

/// The module doc's usage block, printed on an unknown flag combination.
const USAGE: &str = "\
usage: bench_smoke --out PATH                   # run the benches, write PATH
       bench_smoke --check PATH                 # validate a baseline file, exit 1 on problems
       bench_smoke --check PATH --against OLD   # also flag >1.25x regressions vs OLD
       bench_smoke --wire RESULTS --against REF # gate examples/benchmark result lines
       bench_smoke --wire RESULTS --out REF     # write each workload's medians to REF";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opt = |key: &str| flag::<String>(&args, key);
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: read failed: {e}"));
    let write = |path: &str, json: Json| {
        std::fs::write(path, json.to_string() + "\n")
            .map_err(|e| format!("{path}: write failed: {e}"))
    };
    let outcome = match (
        opt("--wire"),
        opt("--check"),
        opt("--against"),
        opt("--out"),
    ) {
        (Some(results), None, Some(reference), None) => read(&results)
            .and_then(|r| check_wire(&r, &read(&reference)?))
            .map(|()| format!("{results}: wire gate OK against {reference}")),
        (Some(results), None, None, Some(out)) => read(&results)
            .and_then(|r| write(&out, wire_medians(&r)?))
            .map(|()| format!("wire medians written to {out}")),
        (None, Some(path), against, None) => check_baseline(&path)
            .and_then(|()| against.map_or(Ok(()), |old| compare_baselines(&path, &old)))
            .map(|()| format!("{path}: baseline OK"))
            .map_err(|e| format!("{path}: {e}")),
        (None, None, None, Some(out)) => {
            write(&out, run_smoke()).map(|()| format!("baseline written to {out}"))
        }
        _ => Err(USAGE.into()),
    };
    match outcome {
        Ok(message) => {
            println!("{message}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn run_smoke() -> Json {
    let model = AvailabilityModel::default();
    let trace = TraceGenerator::new(TraceConfig::lab_machine(2006)).generate_days(30);
    let history = trace.to_history(&model).unwrap();
    let predictor = SmpPredictor::new(model);

    let window = TimeWindow::from_hours(8.0, 2.0);
    let steps = window.steps(model.monitor_period_secs);
    let params = predictor
        .estimate_params(&history, DayType::Weekday, window)
        .unwrap();
    let day = trace.day_samples(0).to_vec();
    let classifier = StateClassifier::new(model);
    // The §7.1 monitoring step: one sample of the day per call, cycling.
    // The manager closes a day into its history every 14 400 calls, so
    // the figure includes that amortized append.
    let mut manager = StateManager::new(model, 0);
    let mut sample_index = 0;
    let generator = TraceGenerator::new(TraceConfig::lab_machine(1));

    // Evenly spaced horizons up to the 2-hour window — the Fig. 5-style
    // sweep. The fast path relaxes bit-identity but must stay inside its
    // 1e-12 unit-scale budget against the paper-order oracle at every
    // horizon, from both initial states — asserted before anything is
    // timed, on the timed kernel (failure mass from holding time 1) and on
    // two variants whose solves start late and not at all.
    let horizons: Vec<usize> = (1..=SWEEP_HORIZONS)
        .map(|i| i * steps / SWEEP_HORIZONS)
        .collect();
    let late = with_failures_moved(&params, Some(3 * steps / 4));
    let none = with_failures_moved(&params, None);
    for kernel in [&params, &late, &none] {
        assert_fast_within_budget(kernel, steps, &horizons);
    }

    // Warm query for the cached-Q/H bench: after this, every iteration is
    // a pure cache hit (the history never changes during the measurement).
    let qh_cache = QhCache::new(8);
    predictor
        .predict_cached(&qh_cache, 0, &history, DayType::Weekday, window, State::S1)
        .unwrap();
    let mut estimator =
        IncrementalEstimator::new(model.monitor_period_secs, DayType::Weekday, window, None);
    estimator.sync(&history);
    assert_eq!(estimator.params().as_ref(), Some(&params));
    // A thousand-host scheduling sweep over a warm kernel cache: every
    // timed query is a cache hit plus a memo hit on the one kernel the
    // hosts share. Timed as a plain loop on one thread: fanned out to two
    // worker threads on two vCPUs, the spawn and the workers' contention
    // on the shared cache and memo locks took ~75 % of the sweep and set
    // its run-to-run spread.
    let cluster_cache = QhCache::new(CLUSTER_HOSTS as usize + 1);
    let sweep = || {
        for host in 0..CLUSTER_HOSTS {
            black_box(
                predictor
                    .predict_cached(
                        &cluster_cache,
                        host,
                        &history,
                        DayType::Weekday,
                        window,
                        State::S1,
                    )
                    .unwrap(),
            );
        }
    };
    sweep();
    // The durable ingest's byte path on one paper-scale day: framing the
    // request line out of a connection's 8 KiB read buffer, reading it
    // into runs, and building the WAL frame the registry writes from them.
    let day_log = &history.days()[1].log;
    assert_eq!(day_log.len(), 14_400);
    let mut digits = Vec::new();
    state::encode_digits(&day_log.states(), &mut digits);
    let ingest_line = format!(
        "{{\"op\":\"ingest\",\"host\":17,\"day_index\":3,\"states\":\"{}\"}}",
        String::from_utf8(digits).expect("digits are ASCII")
    );
    let mut wire_line = ingest_line.clone().into_bytes();
    wire_line.push(b'\n');
    let mut connection = BufReader::new(Resend {
        line: &wire_line,
        at: 0,
    });
    let mut read_buf = Vec::new();
    // The request decode on the wire benchmark's query shape: one predict
    // line, and the `day_rollover` batch of four windows asked from S1 and
    // S2.
    let predict_line = predict_request(17, 9, "S1");
    assert_eq!(predict_line.len(), 83);
    let ops: Vec<String> = (0..8)
        .map(|i| predict_request(17, 6 + i / 2 * 3, if i % 2 == 0 { "S1" } else { "S2" }))
        .collect();
    let batch_line = format!("{{\"op\":\"batch\",\"ops\":[{}]}}", ops.join(","));
    let (mut fast_scratch, mut sweep_scratch) = (SolveScratch::new(), SolveScratch::new());
    let (mut record, mut frame) = (Vec::new(), Vec::new());

    let mut timed: Vec<Bench<'_>> = vec![
        (
            "smp_solver/paper_eq3_2h",
            Box::new(|| {
                black_box(
                    SparseSolver::new(&params)
                        .temporal_reliability(State::S1, steps)
                        .unwrap(),
                );
            }),
        ),
        (
            "smp_solver/fast_2h",
            Box::new(|| {
                black_box(
                    FastSolver::new(&params)
                        .temporal_reliability_with(&mut fast_scratch, State::S1, steps)
                        .unwrap(),
                );
            }),
        ),
        (
            "smp_solver/per_horizon_sweep_2h",
            Box::new(|| {
                for &m in &horizons {
                    black_box(
                        SparseSolver::new(&params)
                            .temporal_reliability(State::S1, m)
                            .unwrap(),
                    );
                }
            }),
        ),
        (
            "smp_solver/batched_sweep_2h",
            Box::new(|| {
                let curve = FastSolver::new(&params)
                    .tr_curve_with(&mut sweep_scratch, steps)
                    .unwrap();
                for &m in &horizons {
                    black_box(curve.tr(State::S1, m).unwrap());
                }
            }),
        ),
        (
            "qh_estimation/2h",
            Box::new(|| {
                black_box(
                    predictor
                        .estimate_params(&history, DayType::Weekday, window)
                        .unwrap(),
                );
            }),
        ),
        (
            "qh_estimation/rebuild_2h",
            Box::new(|| {
                black_box(estimator.params());
            }),
        ),
        (
            "predictor/cached_qh",
            Box::new(|| {
                black_box(
                    predictor
                        .predict_cached(&qh_cache, 0, &history, DayType::Weekday, window, State::S1)
                        .unwrap(),
                );
            }),
        ),
        ("cluster_sweep_1k_hosts", Box::new(sweep)),
        (
            "classify/whole_day_offline",
            Box::new(|| {
                black_box(classifier.classify(&day));
            }),
        ),
        (
            "state_manager/online_step",
            Box::new(|| {
                let sample = day[sample_index % day.len()];
                sample_index += 1;
                black_box(manager.observe(sample.alive.then_some(sample)));
            }),
        ),
        (
            "trace_gen/machine_day_lab",
            Box::new(|| {
                black_box(generator.generate_days(1));
            }),
        ),
        (
            "ingest_bytes/frame_14k",
            Box::new(|| {
                let read = read_bounded_line(&mut connection, &mut read_buf, MAX_LINE_BYTES);
                assert_eq!(read.expect("in-memory read"), LineRead::Line);
                black_box(&read_buf);
            }),
        ),
        (
            "ingest_bytes/scan_decode_14k",
            Box::new(|| {
                let request = JsonSlice::scan(black_box(&ingest_line)).expect("valid line");
                let digits = request.str(Field::States).expect("states field");
                let log = StateLog::from_digits(model.monitor_period_secs, digits.as_bytes());
                black_box(log.expect("valid digits"));
            }),
        ),
        (
            "ingest_bytes/wal_frame_14k",
            Box::new(|| {
                encode_wal_record(&mut record, 17, 3, black_box(day_log));
                frame.clear();
                wal::frame_into(&mut frame, &record).expect("frame fits");
                black_box(&frame);
            }),
        ),
        (
            "wire_decode/predict_line",
            Box::new(|| {
                let request = JsonSlice::scan(black_box(&predict_line)).expect("valid line");
                black_box(read_predict(&request));
            }),
        ),
        (
            "wire_decode/batch8_line",
            Box::new(|| {
                let request = JsonSlice::scan(black_box(&batch_line)).expect("valid line");
                assert_eq!(request.str(Field::Op).as_deref(), Ok("batch"));
                for op in request.array(Field::Ops).expect("ops array") {
                    black_box(read_predict(&op.expect("object op")));
                }
            }),
        ),
    ];
    let (figures, machine_factor) = time_round_robin(&mut timed);
    let benches: Vec<(String, Json)> = figures
        .into_iter()
        .map(|(name, ns)| {
            println!("{name}: {ns:.0} ns/op at machine_factor 1.0");
            (name.to_string(), Json::F64(ns))
        })
        .collect();
    println!("machine_factor: {machine_factor:.3}");

    let overhead = metrics_overhead_pct();
    println!("metrics_overhead_pct: {overhead:.2}");

    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("samples_per_bench".into(), Json::U64(SAMPLES as u64)),
        ("unit".into(), Json::Str(UNIT.into())),
        ("benches".into(), Json::Obj(benches)),
        ("machine_factor".into(), Json::F64(machine_factor)),
        ("metrics_overhead_pct".into(), Json::F64(overhead)),
    ])
}

/// A predict request line as the wire benchmark writes it.
fn predict_request(host: u64, start: u32, init: &str) -> String {
    format!(
        "{{\"op\":\"predict\",\"host\":{host},\"start\":{start}.0,\"hours\":2.0,\
         \"day_type\":\"weekday\",\"init\":\"{init}\"}}"
    )
}

/// The reads the server makes of a predict request's captures, in its
/// order: `op`, `host`, `start`, `hours`, then the optional `day_type` and
/// `init`.
fn read_predict(request: &JsonSlice<'_>) -> (u64, f64, f64, bool, bool) {
    assert_eq!(request.str(Field::Op).as_deref(), Ok("predict"));
    let host = request.u64(Field::Host).expect("host");
    let start = request.f64(Field::Start).expect("start");
    let hours = request.f64(Field::Hours).expect("hours");
    let day_type = request.opt_str(Field::DayType).expect("day_type");
    let init = request.opt_str(Field::Init).expect("init");
    (
        host,
        start,
        hours,
        day_type.as_deref() == Some("weekday"),
        init.as_deref() == Some("S1"),
    )
}

/// Asserts the fast solver within [`FAST_ERROR_BUDGET`] of one paper-order
/// [`SparseSolver::tr_curve`] run: its curve at every horizon up to
/// `steps` and its scalar solve at each of `horizons`, from both initial
/// states.
fn assert_fast_within_budget(params: &SmpParams, steps: usize, horizons: &[usize]) {
    let oracle = SparseSolver::new(params).tr_curve(steps).unwrap();
    let fast = FastSolver::new(params);
    let fast_curve = fast.tr_curve(steps).unwrap();
    let within_budget = |f: f64, o: f64| (f - o).abs() <= FAST_ERROR_BUDGET * o.abs().max(1.0);
    for init in [State::S1, State::S2] {
        let (f_curve, o_curve) = (fast_curve.curve(init).unwrap(), oracle.curve(init).unwrap());
        assert_eq!(f_curve.len(), o_curve.len());
        for (m, (&f, &o)) in f_curve.iter().zip(o_curve).enumerate() {
            assert!(
                within_budget(f, o),
                "fast TR curve at init {init} horizon {m} outside budget: {f} vs {o}"
            );
        }
        for &m in horizons {
            let f = fast.temporal_reliability(init, m).unwrap();
            let o = oracle.tr(init, m).unwrap();
            assert!(
                within_budget(f, o),
                "fast TR at init {init} horizon {m} outside budget: {f} vs {o}"
            );
        }
    }
}

/// `params` with each failure mass `q_{i,S3..S5}(l)` moved to holding time
/// `l + shift` (mass moved past the horizon is dropped), or removed when
/// `shift` is `None`. The operational transitions stay as they are.
fn with_failures_moved(params: &SmpParams, shift: Option<usize>) -> SmpParams {
    let row = |from: State, other: State| -> [Vec<f64>; 4] {
        [other, State::S3, State::S4, State::S5].map(|to| {
            (0..=params.horizon())
                .map(|l| match (to == other, shift) {
                    (true, _) => params.kernel_at(from, to, l),
                    (false, Some(shift)) if l > shift => params.kernel_at(from, to, l - shift),
                    (false, _) => 0.0,
                })
                .collect()
        })
    };
    let kernel = [row(State::S1, State::S2), row(State::S2, State::S1)];
    SmpParams::from_kernel(params.step_secs(), kernel)
}

/// A peer that sends one request line over and over: each read hands over
/// at most the rest of the current line, as a socket does for a client
/// with one request in flight.
struct Resend<'a> {
    line: &'a [u8],
    at: usize,
}

impl Read for Resend<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let rest = &self.line[self.at..];
        let n = rest.len().min(out.len());
        out[..n].copy_from_slice(&rest[..n]);
        self.at = (self.at + n) % self.line.len();
        Ok(n)
    }
}

/// A named bench: one call runs one iteration.
type Bench<'a> = (&'static str, Box<dyn FnMut() + Send + 'a>);

/// Times every bench in [`SAMPLES`] round-robin rounds, each bench's
/// sample a batch of the iteration count that fills [`TARGET_SAMPLE`] and
/// each batch right after one pass of [`calibration_workload`]. A bench's
/// figure is its fastest sample in ns/op divided by the machine factor of
/// the fastest calibration pass interleaved with it (see [`UNIT`]).
/// Returns the figures and the fastest pass's machine factor.
///
/// Each round runs on a fresh thread. On the main thread the calibration
/// pass ran at one of two speeds from run to run (machine factor 3.45 to
/// 4.04 over twelve runs on a 2-vCPU VM, which moved every figure by the
/// same amount); on fresh threads it held to 2.62-2.84.
fn time_round_robin(benches: &mut [Bench<'_>]) -> (Vec<(&'static str, f64)>, f64) {
    let batch = |iters: u64, f: &mut dyn FnMut()| {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed()
    };
    // Each bench's iterations per sample: doubled until one batch lasts
    // TARGET_SAMPLE.
    let iters: Vec<u64> = benches
        .iter_mut()
        .map(|(_, f)| {
            let mut iters = 1;
            while batch(iters, f) < TARGET_SAMPLE && iters < 1 << 30 {
                iters *= 2;
            }
            iters
        })
        .collect();
    let time_ns =
        |iters: u64, f: &mut dyn FnMut()| batch(iters, f).as_nanos() as f64 / iters as f64;
    let mut fastest = vec![(f64::INFINITY, f64::INFINITY); benches.len()];
    for _ in 0..SAMPLES {
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for (((_, f), &n), (calibration, sample)) in
                    benches.iter_mut().zip(&iters).zip(&mut fastest)
                {
                    let pass = time_ns(1, &mut || {
                        black_box(calibration_workload());
                    });
                    *calibration = calibration.min(pass);
                    *sample = sample.min(time_ns(n, f));
                }
            });
        });
    }
    let machine_factor = fastest
        .iter()
        .map(|&(c, _)| c)
        .fold(f64::INFINITY, f64::min)
        / CALIBRATION_REF_NS;
    let figures = benches
        .iter()
        .zip(&fastest)
        .map(|(&(name, _), &(calibration, sample))| {
            (name, sample * CALIBRATION_REF_NS / calibration)
        })
        .collect();
    (figures, machine_factor)
}

/// A fixed pure-arithmetic workload shaped like the solver's inner loop
/// (multiply–add over slices), used to measure how fast *this* machine is
/// relative to the reference the gate constants were tuned on. No
/// allocation inside the timed region; the data dependency through `acc`
/// keeps the compiler from folding the loop away.
fn calibration_workload() -> f64 {
    const N: usize = 1024;
    const ROUNDS: usize = 64;
    let q: Vec<f64> = (0..N).map(|i| 1.0 / (i as f64 + 2.0)).collect();
    let mut p: Vec<f64> = (0..N).map(|i| (i as f64) * 1e-3).collect();
    let mut acc = 0.0f64;
    for _ in 0..ROUNDS {
        for m in 1..N {
            let mut s = 0.0;
            for l in (m.saturating_sub(64))..m {
                s += q[m - l] * p[l];
            }
            acc += s;
            p[m] = (p[m] + s * 1e-9).min(1.0);
        }
    }
    acc
}

/// One pass of a miniature Fig. 5 sweep: every machine × window length ×
/// a grid of start hours on a train/test split — the workload the <5 %
/// metrics-overhead acceptance criterion is defined against.
fn fig5_mini_sweep(tb: &Testbed) -> usize {
    let predictor = SmpPredictor::new(tb.model);
    let mut evaluated = 0;
    for history in &tb.histories {
        let (train, test) = history.split_ratio(1, 1);
        for hours in [1.0, 2.0, 3.0] {
            for start in [0.0f64, 4.0, 8.0, 12.0, 16.0, 20.0] {
                let w = TimeWindow::from_hours(start, hours);
                let eval = evaluate_window(&predictor, &train, &test, DayType::Weekday, w);
                if eval.is_ok_and(|e| e.relative_error().is_some()) {
                    evaluated += 1;
                }
            }
        }
    }
    evaluated
}

/// Runs the mini sweep with the registry disabled and enabled, back to
/// back in each of 31 rounds (alternating which goes first), and returns
/// the median enabled/disabled ratio as a slowdown in percent. Pairing
/// each enabled pass with a disabled one next to it cancels the machine's
/// drift; the median drops the rounds a noisy neighbour hit.
fn metrics_overhead_pct() -> f64 {
    let tb = Testbed::generate(2006, 3, 21);
    // Warm up caches and page in the histories, once per gate position so
    // the first measured round of either mode isn't paying one-time costs
    // (lazy instrument registration, branch-predictor training).
    fig5_mini_sweep(&tb);
    fgcs_runtime::metrics::set_enabled(true);
    fig5_mini_sweep(&tb);
    let timed = |enabled: bool| {
        fgcs_runtime::metrics::set_enabled(enabled);
        let t = Instant::now();
        black_box(fig5_mini_sweep(&tb));
        t.elapsed().as_secs_f64()
    };
    let mut ratios: Vec<f64> = (0..31)
        .map(|round| {
            if round % 2 == 0 {
                let off = timed(false);
                timed(true) / off
            } else {
                let on = timed(true);
                on / timed(false)
            }
        })
        .collect();
    fgcs_runtime::metrics::set_enabled(false);
    ratios.sort_by(f64::total_cmp);
    (100.0 * (ratios[ratios.len() / 2] - 1.0)).max(0.0)
}

fn check_baseline(path: &str) -> Result<(), String> {
    let top = load_baseline(path)?;
    let field = |key: &str| {
        top.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing key `{key}`"))
    };
    let Json::Obj(benches) = field("benches")? else {
        return Err("`benches` is not an object".into());
    };
    for key in REQUIRED_KEYS {
        let Some((_, value)) = benches.iter().find(|(k, _)| k == key) else {
            return Err(format!("missing bench `{key}`"));
        };
        let ns = as_finite_number(value).ok_or_else(|| format!("bench `{key}` is not finite"))?;
        if ns <= 0.0 {
            return Err(format!("bench `{key}` is not positive: {ns}"));
        }
    }
    for (key, value) in benches {
        if as_finite_number(value).is_none() {
            return Err(format!("bench `{key}` is not a finite number"));
        }
    }
    let overhead = as_finite_number(field("metrics_overhead_pct")?)
        .ok_or("`metrics_overhead_pct` is not finite")?;
    if overhead >= OVERHEAD_BUDGET_PCT {
        return Err(format!(
            "metrics overhead {overhead:.2}% exceeds the {OVERHEAD_BUDGET_PCT}% budget"
        ));
    }
    let machine_factor =
        as_finite_number(field("machine_factor")?).ok_or("`machine_factor` is not finite")?;
    if !MACHINE_FACTOR_RANGE.contains(&machine_factor) {
        return Err(format!(
            "machine_factor {machine_factor:.3} outside the sane range \
             {MACHINE_FACTOR_RANGE:?} — calibration is broken, not just slow"
        ));
    }
    let gate = |key: &str, budget_ns: f64| -> Result<(), String> {
        let ns = benches
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| as_finite_number(v))
            .ok_or_else(|| format!("missing bench `{key}`"))?;
        if ns > budget_ns {
            return Err(format!(
                "bench `{key}` at {ns:.0} ns/op exceeds its hard gate of \
                 {budget_ns:.0} ns/op (both at machine_factor 1.0)"
            ));
        }
        Ok(())
    };
    gate("smp_solver/fast_2h", FAST_SOLVE_GATE_NS)?;
    gate("smp_solver/batched_sweep_2h", BATCH_SWEEP_GATE_NS)?;
    gate("qh_estimation/2h", QH_ESTIMATION_GATE_NS)?;
    gate("qh_estimation/rebuild_2h", QH_REBUILD_GATE_NS)?;
    gate("cluster_sweep_1k_hosts", CLUSTER_SWEEP_GATE_NS)?;
    gate("ingest_bytes/frame_14k", FRAME_GATE_NS)?;
    gate("ingest_bytes/scan_decode_14k", SCAN_DECODE_GATE_NS)?;
    gate("ingest_bytes/wal_frame_14k", WAL_FRAME_GATE_NS)?;
    gate("wire_decode/predict_line", PREDICT_DECODE_GATE_NS)?;
    gate("wire_decode/batch8_line", BATCH_DECODE_GATE_NS)?;
    Ok(())
}

/// Reads a baseline's top-level object, refusing any schema but
/// [`SCHEMA`].
fn load_baseline(path: &str) -> Result<Vec<(String, Json)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: read failed: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: parse failed: {e}"))?;
    if json.field("schema").ok() != Some(&Json::Str(SCHEMA.into())) {
        return Err(format!("{path}: `schema` is not `{SCHEMA}`"));
    }
    match json {
        Json::Obj(top) => Ok(top),
        _ => Err(format!("{path}: top level is not an object")),
    }
}

/// Flags benches present in *both* baselines whose figure grew by more
/// than [`REGRESSION_FACTOR`]. Both files hold ns/op at `machine_factor`
/// 1.0, so the ratio compares the code, not the machines it ran on. Keys
/// unique to either file are ignored, so adding or retiring a bench never
/// trips the comparison.
fn compare_baselines(new_path: &str, old_path: &str) -> Result<(), String> {
    let load = |path: &str| -> Result<Vec<(String, f64)>, String> {
        let benches = load_baseline(path)?
            .into_iter()
            .find_map(|(k, v)| match v {
                Json::Obj(b) if k == "benches" => Some(b),
                _ => None,
            })
            .ok_or_else(|| format!("{path}: missing `benches` object"))?;
        Ok(benches
            .into_iter()
            .filter_map(|(k, v)| as_finite_number(&v).map(|ns| (k, ns)))
            .collect())
    };
    let old = load(old_path)?;
    let regressions: Vec<String> = load(new_path)?
        .into_iter()
        .filter_map(|(key, new_ns)| {
            let (_, old_ns) = old.iter().find(|(k, _)| *k == key)?;
            let ratio = new_ns / old_ns;
            (*old_ns > 0.0 && ratio > REGRESSION_FACTOR).then(|| {
                format!(
                    "{key}: {new_ns:.0} ns/op vs {old_ns:.0} ns/op ({ratio:.2}x > {REGRESSION_FACTOR}x)"
                )
            })
        })
        .collect();
    if regressions.is_empty() {
        println!("{new_path}: no regressions vs {old_path}");
        Ok(())
    } else {
        Err(format!(
            "perf regressions vs {old_path}:\n  {}",
            regressions.join("\n  ")
        ))
    }
}

/// Accepts any JSON number, rejecting the `null` the writer emits for
/// non-finite floats.
fn as_finite_number(v: &Json) -> Option<f64> {
    match v {
        Json::F64(x) if x.is_finite() => Some(*x),
        Json::I64(x) => Some(*x as f64),
        Json::U64(x) => Some(*x as f64),
        _ => None,
    }
}

/// Parses `examples/benchmark --json` result lines into
/// `(workload, line)` pairs, in file order.
fn wire_runs(results: &str) -> Result<Vec<(String, Json)>, String> {
    results
        .lines()
        .filter(|line| !line.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let run = Json::parse(line).map_err(|e| format!("result line {}: {e}", i + 1))?;
            let workload = run
                .get::<String>("workload")
                .map_err(|e| format!("result line {}: {e}", i + 1))?;
            Ok((workload, run))
        })
        .collect()
}

/// The [`WIRE_GATES`] metrics of one result line, or what makes the line
/// a failed run: `correct` not `true`, `failed` not 0, or a metric that is
/// not a finite number.
fn wire_metrics(workload: &str, run: &Json) -> Result<[f64; 3], Vec<String>> {
    let mut errors = Vec::new();
    if run.field("correct").ok() != Some(&Json::Bool(true)) {
        errors.push(format!("{workload}: `correct` is not true"));
    }
    match run.field("failed").ok().and_then(Json::as_u64) {
        Some(0) => {}
        Some(n) => errors.push(format!("{workload}: `failed` is {n}, not 0")),
        None => errors.push(format!("{workload}: `failed` is not a count")),
    }
    let mut values = [0.0; 3];
    for (value, (name, _)) in values.iter_mut().zip(WIRE_GATES) {
        let metric = run
            .field("metrics")
            .and_then(|m| m.field(name))
            .and_then(|m| m.field("value"));
        match metric.ok().and_then(as_finite_number) {
            Some(v) => *value = v,
            None => errors.push(format!("{workload}: {name} is not a finite number")),
        }
    }
    if errors.is_empty() {
        Ok(values)
    } else {
        Err(errors)
    }
}

/// The `--wire --against` gate: every workload in `reference` (a
/// `BENCH_wire.json`) has a result line, and every result line is correct
/// and within [`WIRE_GATES`] of its workload's committed medians.
fn check_wire(results: &str, reference: &str) -> Result<(), String> {
    let reference = Json::parse(reference).map_err(|e| format!("reference: {e}"))?;
    if reference.field("schema").ok() != Some(&Json::Str(WIRE_SCHEMA.into())) {
        return Err(format!("reference: `schema` is not `{WIRE_SCHEMA}`"));
    }
    let Ok(Json::Obj(committed)) = reference.field("workloads") else {
        return Err("reference: `workloads` is not an object".into());
    };
    let runs = wire_runs(results)?;
    let mut errors: Vec<String> = committed
        .iter()
        .filter(|(workload, _)| !runs.iter().any(|(w, _)| w == workload))
        .map(|(workload, _)| format!("{workload}: no result line"))
        .collect();
    for (workload, run) in &runs {
        let Some((_, medians)) = committed.iter().find(|(w, _)| w == workload) else {
            errors.push(format!("{workload}: not in the reference"));
            continue;
        };
        let values = match wire_metrics(workload, run) {
            Ok(values) => values,
            Err(e) => {
                errors.extend(e);
                continue;
            }
        };
        let mut report = Vec::new();
        for (value, (name, factor)) in values.into_iter().zip(WIRE_GATES) {
            let Some(median) = medians.field(name).ok().and_then(as_finite_number) else {
                errors.push(format!(
                    "reference {workload}: {name} is not a finite number"
                ));
                continue;
            };
            report.push(format!("{name} {value:.3} ({:.2}x)", value / median));
            if value > factor * median {
                errors.push(format!(
                    "{workload}: {name} {value:.3} exceeds {factor}x the committed {median:.3}"
                ));
            }
        }
        println!("{workload}: {}", report.join(", "));
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(format!("wire gate failed:\n  {}", errors.join("\n  ")))
    }
}

/// The `--wire --out` reference: each workload's run count and median of
/// each [`WIRE_GATES`] metric over its result lines, all of which must be
/// correct.
fn wire_medians(results: &str) -> Result<Json, String> {
    let mut workloads: Vec<(String, Vec<[f64; 3]>)> = Vec::new();
    let mut errors = Vec::new();
    for (workload, run) in wire_runs(results)? {
        match wire_metrics(&workload, &run) {
            Ok(values) => match workloads.iter_mut().find(|(w, _)| *w == workload) {
                Some((_, rows)) => rows.push(values),
                None => workloads.push((workload, vec![values])),
            },
            Err(e) => errors.extend(e),
        }
    }
    if !errors.is_empty() {
        return Err(format!("not a reference:\n  {}", errors.join("\n  ")));
    }
    if workloads.is_empty() {
        return Err("no result lines".into());
    }
    let workloads = workloads
        .into_iter()
        .map(|(workload, rows)| {
            let mut fields = vec![("runs".to_string(), Json::U64(rows.len() as u64))];
            for (i, (name, _)) in WIRE_GATES.iter().enumerate() {
                let mut column: Vec<f64> = rows.iter().map(|row| row[i]).collect();
                column.sort_by(f64::total_cmp);
                let median = (column[(column.len() - 1) / 2] + column[column.len() / 2]) / 2.0;
                fields.push((name.to_string(), Json::F64(median)));
            }
            (workload, Json::Obj(fields))
        })
        .collect();
    Ok(Json::Obj(vec![
        ("schema".into(), Json::Str(WIRE_SCHEMA.into())),
        ("workloads".into(), Json::Obj(workloads)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    const REFERENCE: &str = r#"{"schema":"fgcs-bench-wire/v1","workloads":{"query_hot":{"runs":1,"server_cpu_us":15.6,"setup_s":0.34,"rss_mb":59.3},"cold_window":{"runs":1,"server_cpu_us":85.0,"setup_s":0.17,"rss_mb":52.7}}}"#;

    /// One result line as `examples/benchmark --json` writes it; the
    /// fields are spliced in verbatim.
    fn line(workload: &str, correct: &str, failed: &str, metrics: [&str; 3]) -> String {
        let [cpu, setup, rss] = metrics;
        format!(
            "{{\"workload\":\"{workload}\",\"seed\":1,\"trace\":false,\"correct\":{correct},\
             \"attempted\":1000,\"failed\":{failed},\"metrics\":{{\
             \"server_cpu_us\":{{\"value\":{cpu},\"unit\":\"us\"}},\
             \"setup_s\":{{\"value\":{setup},\"unit\":\"s\"}},\
             \"rss_mb\":{{\"value\":{rss},\"unit\":\"MB\"}}}}}}"
        )
    }

    fn at_reference(query_hot: String) -> String {
        let cold = line("cold_window", "true", "0", ["85.0", "0.17", "52.7"]);
        format!("{query_hot}\n{cold}\n")
    }

    #[test]
    fn wire_results_at_the_committed_values_pass() {
        let hot = line("query_hot", "true", "0", ["15.6", "0.34", "59.3"]);
        assert_eq!(check_wire(&at_reference(hot), REFERENCE), Ok(()));
    }

    #[test]
    fn wire_gate_failures_name_the_workload_and_the_metric() {
        let cases = [
            (
                "correct: false",
                line("query_hot", "false", "0", ["15.6", "0.34", "59.3"]),
                "correct",
            ),
            (
                "failed: 1",
                line("query_hot", "true", "1", ["15.6", "0.34", "59.3"]),
                "failed",
            ),
            (
                "rss_mb at +6 %",
                line("query_hot", "true", "0", ["15.6", "0.34", "62.858"]),
                "rss_mb",
            ),
            (
                "server_cpu_us at 3.1x",
                line("query_hot", "true", "0", ["48.36", "0.34", "59.3"]),
                "server_cpu_us",
            ),
            (
                "a null metric",
                line("query_hot", "true", "0", ["15.6", "null", "59.3"]),
                "setup_s",
            ),
        ];
        for (label, hot, metric) in cases {
            let err = check_wire(&at_reference(hot), REFERENCE).expect_err(label);
            assert!(
                err.contains("query_hot: ") && err.contains(metric),
                "{label}: {err}"
            );
            assert!(!err.contains("cold_window"), "{label}: {err}");
        }
        let only_hot = line("query_hot", "true", "0", ["15.6", "0.34", "59.3"]);
        let err = check_wire(&only_hot, REFERENCE).expect_err("a missing workload");
        assert!(err.contains("cold_window: no result line"), "{err}");
    }

    #[test]
    fn wire_medians_round_trip_through_the_gate() {
        let results: String = [
            line("query_hot", "true", "0", ["14.0", "0.30", "59.0"]),
            line("query_hot", "true", "0", ["18.0", "0.40", "60.0"]),
            line("query_hot", "true", "0", ["15.0", "0.34", "59.4"]),
            line("query_hot", "true", "0", ["16.0", "0.36", "59.2"]),
        ]
        .join("\n");
        let reference = wire_medians(&results).expect("medians").to_string();
        assert_eq!(
            reference,
            r#"{"schema":"fgcs-bench-wire/v1","workloads":{"query_hot":{"runs":4,"server_cpu_us":15.5,"setup_s":0.35,"rss_mb":59.3}}}"#
        );
        assert_eq!(check_wire(&results, &reference), Ok(()));
        let wrong = line("query_hot", "true", "2", ["15.6", "0.34", "59.3"]);
        assert!(wire_medians(&wrong).is_err());
    }
}
