//! The untraced run, in rounds. Each round sets up a fresh server in the
//! workload's warm state (timed: `setup_s`), sends an open-loop phase at
//! the workload's rate, then a two-connection saturation phase, and tears
//! the server down. The server's CPU time per request is summed over the
//! open-loop phases of every round but the first, each scaled by the
//! machine's speed around it (see [`machine_factor`]). Latency percentiles
//! are taken per window of about [`WINDOW_REQUESTS`] requests of the
//! open-loop phases, and throughput and setup time per round; the median
//! over all windows or rounds is reported, so a burst of interference from
//! the host moves the windows it falls in, not the result. A fresh
//! instance per round also bounds what a run piles up in memory.
//! The oracle then checks the sampled replies of every round.

use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crate::client::{self, Check, Outcome, Stop};
use crate::oracle;
use crate::server;
use crate::stats::{median, median_of_window_percentiles, percentile, split_windows};
use crate::sys::CpuClock;
use crate::workload::{self, Req, Stream, Workload, WARM_DAYS};

/// Requests per latency window, on average: enough that each window's
/// p90 has 25 samples beyond it.
const WINDOW_REQUESTS: usize = 250;
/// Share of each round's measured time given to the open-loop phase; the
/// rest is the saturation phase.
const OPEN_LOOP_SHARE: f64 = 0.75;
/// Predict replies kept for the oracle: one in this many.
const PREDICT_SAMPLE: u64 = 64;
/// Sweep and batch replies kept in the saturation phase: one in this many
/// (every one is kept in the open-loop phase).
const SATURATION_HEAVY_SAMPLE: u64 = 16;
/// Iterations of the calibration loop in [`machine_factor`].
const CALIBRATION_ITERS: u64 = 10_000_000;
/// CPU time of the calibration loop on the machine the README's baseline
/// was measured on (median over 220 rounds of 40 runs), ns.
const CALIBRATION_REF_NS: f64 = 27.0e6;

/// How slow this machine is right now relative to the baseline's: the CPU
/// time of a fixed chain of dependent floating-point multiply-adds over
/// [`CALIBRATION_REF_NS`]. On a shared host the CPU time of the same work
/// drifts by ±15 % over minutes, as other guests contend for the core, its
/// caches and its clock. The loop drifts with it: over ten runs of each
/// workload its time correlated 0.84–0.91 with the server's CPU time per
/// request, and dividing by it halved that metric's spread. The loop is
/// the benchmark's own code, so no change to the program moves it.
fn machine_factor(clock: CpuClock) -> io::Result<f64> {
    let start = clock.ns()?;
    let mut y = 1.0f64;
    for i in 0..CALIBRATION_ITERS {
        y = y * 1.000_000_001 + (i & 7) as f64 * 1e-12;
    }
    std::hint::black_box(y);
    Ok(clock.ns()?.saturating_sub(start) as f64 / CALIBRATION_REF_NS)
}

/// Run size: hosts, rounds and phase lengths per round.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    pub hosts: u32,
    pub rounds: usize,
    pub open_loop: Duration,
    pub saturation: Duration,
    /// Cap on the requests replayed per depth in the traced run.
    pub trace_cap: usize,
}

impl Profile {
    /// The measured profile: 256 hosts, `rounds` rounds sharing `seconds`
    /// of measurement between open loop and saturation.
    pub fn full(seconds: f64, rounds: usize) -> Profile {
        let per_round = seconds / rounds as f64;
        Profile {
            hosts: 256,
            rounds,
            open_loop: Duration::from_secs_f64(per_round * OPEN_LOOP_SHARE),
            saturation: Duration::from_secs_f64(per_round * (1.0 - OPEN_LOOP_SHARE)),
            trace_cap: usize::MAX,
        }
    }

    /// The test profile: 16 hosts, three rounds of 1 s phases.
    pub fn smoke() -> Profile {
        Profile {
            hosts: 16,
            rounds: 3,
            open_loop: Duration::from_secs(1),
            saturation: Duration::from_secs(1),
            trace_cap: 400,
        }
    }
}

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the final JSON line.
    pub metrics: Vec<Metric>,
    /// Further diagnostics, printed but not part of the JSON line.
    pub notes: Vec<Metric>,
    /// The first wrong answer, when there is one.
    pub first_error: Option<String>,
}

/// Round `round`'s open-loop request stream over the warm state: the
/// first `n` requests are the same whatever `n` is, which the traced run
/// relies on (it replays round 0's).
pub fn open_loop_stream(w: &Workload, hosts: u32, seed: u64, round: u64) -> Stream {
    Stream::new(
        w.kind,
        seed,
        10 * round,
        (0..hosts).collect(),
        vec![WARM_DAYS; hosts as usize],
    )
}

fn health_counter(addr: SocketAddr, name: &str) -> io::Result<u64> {
    let reply = client::request(addr, "{\"op\":\"health\"}")?;
    fgcs::runtime::json::Json::parse(&reply)
        .ok()
        .and_then(|j| j.field(name).ok().and_then(|v| v.as_u64()))
        .ok_or_else(|| io::Error::other(format!("health reply lacks {name}: {reply}")))
}

/// What one round measured.
struct Round {
    setup_s: f64,
    /// Open-loop latency from each request's due time, ns, per window.
    latencies: Vec<Vec<u64>>,
    /// Open-loop replies and the server's CPU time for them, ns.
    server_cpu: (u64, u64),
    /// [`machine_factor`], the mean of one taken just before the open-loop
    /// phase and one just after.
    machine_factor: f64,
    /// Saturation completions per second.
    ops_s: f64,
    lags: Vec<u64>,
    snapshots: u64,
    attempted: u64,
    failed: u64,
    checks: Vec<Check>,
}

fn round(
    w: &Workload,
    seed: u64,
    p: &Profile,
    warm_lines: &server::WarmLines,
    r: u64,
    rss: Option<&mut (u64, u64)>,
) -> io::Result<Round> {
    let mut stream = open_loop_stream(w, p.hosts, seed, r);
    let n_open = (w.rate * p.open_loop.as_secs_f64()).round() as usize;
    let open_reqs = stream.take(n_open);
    let dues = workload::poisson_dues(seed, r, &open_reqs, w.rate);

    let dir = server::fresh_dir(w.name)?;
    let before = server::rss_bytes()?;
    let warm = server::setup(w, warm_lines, &dir)?;
    if let Some(rss) = rss {
        *rss = (before, server::rss_bytes()?);
    }
    let addr = warm.running.addr;
    let snapshots_before = health_counter(addr, "snapshots_written")?;

    let clock = CpuClock::this_thread()?;
    let factor_before = machine_factor(clock)?;
    let open = client::open_loop(addr, seed, &open_reqs, &dues, &|k, req| match req {
        Req::Predict { .. } => (k as u64).is_multiple_of(PREDICT_SAMPLE),
        Req::Sweep { .. } | Req::Batch { .. } => true,
        Req::Ingest { .. } => false,
    })?;
    let factor = (factor_before + machine_factor(clock)?) / 2.0;

    let sample: &(dyn Fn(u64, &Req) -> bool + Sync) = &|i, req| match req {
        Req::Predict { .. } => i.is_multiple_of(PREDICT_SAMPLE),
        Req::Sweep { .. } | Req::Batch { .. } => i.is_multiple_of(SATURATION_HEAVY_SAMPLE),
        Req::Ingest { .. } => false,
    };
    // Each connection owns half the hosts, so every host's days still
    // arrive in order.
    let mut streams: Vec<Stream> = (0..2u32)
        .map(|c| {
            let hosts = (0..p.hosts).filter(|h| h % 2 == c).collect();
            Stream::new(
                w.kind,
                seed,
                10 * r + 1 + u64::from(c),
                hosts,
                stream.next_day().to_vec(),
            )
        })
        .collect();
    let stop = Stop {
        t0: Instant::now(),
        deadline: Some(p.saturation),
        max_ops: w.max_ops.map(|m| m / 2),
    };
    let conns: Vec<io::Result<Outcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .map(|s| {
                scope.spawn(move || {
                    let mut next = |buf: &mut Vec<u8>| {
                        let req = s.next_req();
                        workload::write_line(seed, &req, buf);
                        Some(req)
                    };
                    client::closed_loop(addr, &mut next, w.window, stop, sample)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("saturation thread panicked"))
            .collect()
    });
    let snapshots = health_counter(addr, "snapshots_written")? - snapshots_before;
    let setup_s = warm.setup.as_secs_f64();
    warm.running.stop()?;
    server::remove_dir(&dir)?;

    // A unit's latency is that of its last reply: an ingest followed by its
    // batch (which shares its due time) is not a sample of its own.
    let samples: Vec<(u64, u64)> = open
        .samples
        .iter()
        .enumerate()
        .filter(|&(k, _)| !matches!(open_reqs.get(k + 1), Some(Req::Batch { .. })))
        .map(|(_, &s)| s)
        .collect();
    let span = dues.last().map_or(1, |d| d + 1);
    let windows = (samples.len() / WINDOW_REQUESTS).max(1);
    let mut done = Round {
        setup_s,
        latencies: split_windows(&samples, span, windows),
        server_cpu: (open.samples.len() as u64, open.server_cpu_ns),
        machine_factor: factor,
        ops_s: 0.0,
        lags: open.lags,
        snapshots,
        attempted: open.attempted,
        failed: open.failed,
        checks: open.checks,
    };
    // Saturation counts completions until the first connection stopped
    // issuing requests, while both were loading the server.
    let mut completions = Vec::new();
    let mut end = u64::MAX;
    for conn in conns {
        let conn = conn?;
        done.attempted += conn.attempted;
        done.failed += conn.failed;
        done.checks.extend(conn.checks);
        completions.extend(conn.samples);
        end = end.min(conn.stop_ns);
    }
    let completed = completions.iter().filter(|&&(t, _)| t <= end).count();
    done.ops_s = completed as f64 / (end.max(1) as f64 / 1e9);
    Ok(done)
}

pub fn run(w: &Workload, seed: u64, p: &Profile) -> io::Result<Report> {
    let mut rss = (0, 0);
    let warm_lines = server::WarmLines::new(w, p.hosts, seed);
    let mut rounds = Vec::with_capacity(p.rounds);
    for r in 0..p.rounds {
        let first = (r == 0).then_some(&mut rss);
        rounds.push(round(w, seed, p, &warm_lines, r as u64, first)?);
    }

    let mut report = Report::default();
    let mut checks = Vec::new();
    let mut lags = Vec::new();
    for r in &mut rounds {
        report.attempted += r.attempted;
        report.failed += r.failed;
        checks.append(&mut r.checks);
        lags.append(&mut r.lags);
    }
    let (wrong, first) = oracle::verify(seed, &mut checks);
    report.failed += wrong;
    report.first_error = first;

    let mut latencies: Vec<Vec<u64>> = rounds
        .iter_mut()
        .flat_map(|r| std::mem::take(&mut r.latencies))
        .collect();
    let ops_s: Vec<f64> = rounds.iter().map(|r| r.ops_s).collect();
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let snapshots: u64 = rounds.iter().map(|r| r.snapshots).sum();
    let factors: Vec<f64> = rounds.iter().map(|r| r.machine_factor).collect();
    // The first round faults in the heap every later round reuses (see
    // `sys::keep_freed_memory`): a cost a long-running server pays once,
    // and on a VM one the host's load sets. The server's CPU time is taken
    // from the other rounds.
    let measured = if rounds.len() > 1 {
        &rounds[1..]
    } else {
        &rounds[..]
    };
    let replies: u64 = measured.iter().map(|r| r.server_cpu.0).sum();
    let raw_ns: u64 = measured.iter().map(|r| r.server_cpu.1).sum();
    let scaled_ns: f64 = measured
        .iter()
        .map(|r| r.server_cpu.1 as f64 / r.machine_factor)
        .sum();
    let per_reply_us = |ns: f64| ns / replies.max(1) as f64 / 1e3;
    report.metrics = vec![
        // The server's CPU time per request at the baseline machine's
        // speed. CPU clocks leave out the time the host runs something
        // else on this VM's CPUs, which wall-clock latency cannot; the
        // machine factor takes out how much slower the host's other guests
        // make the CPU time this VM does get.
        metric("server_cpu_us", per_reply_us(scaled_ns), "us"),
        metric("setup_s", median(&setups), "s"),
        metric("rss_mb", rss.1.saturating_sub(rss.0) as f64 / 1e6, "MB"),
    ];
    report.notes = vec![
        metric(
            "error_rate",
            report.failed as f64 / report.attempted.max(1) as f64,
            "ratio",
        ),
        metric("server_cpu_raw_us", per_reply_us(raw_ns as f64), "us"),
        metric("machine_factor", median(&factors), "ratio"),
        // While the shared host takes CPU time from this VM, which it does
        // for minutes at a time, a window's p90 and p99 grow up to a
        // hundredfold and its p50 up to sixteenfold (`query_hot`); a run
        // caught in such a spell cannot median it away. So latency is a
        // diagnostic here, not an end-to-end metric with a bound.
        metric(
            "p50_us",
            median_of_window_percentiles(&mut latencies, 0.50) / 1e3,
            "us",
        ),
        metric(
            "p90_us",
            median_of_window_percentiles(&mut latencies, 0.90) / 1e3,
            "us",
        ),
        metric(
            "p99_us",
            median_of_window_percentiles(&mut latencies, 0.99) / 1e3,
            "us",
        ),
        // On a 2-vCPU VM, saturation throughput drifts with host load over
        // minutes (IQR up to a quarter of the median over ten runs), so it
        // is a diagnostic here rather than an end-to-end metric with a
        // bound.
        metric("max_ops_s", median(&ops_s), "ops/s"),
        metric(
            "gen_lag_p99_us",
            percentile(&mut lags, 0.99).unwrap_or(0) as f64 / 1e3,
            "us",
        ),
        metric("rounds", p.rounds as f64, "count"),
        metric("oracle_checks", checks.len() as f64, "count"),
        metric(
            "snapshots_per_shard",
            snapshots as f64 / fgcs::serve::ServeConfig::default().shards as f64,
            "count",
        ),
    ];
    Ok(report)
}
