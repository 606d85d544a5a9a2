//! The traced run: per-layer time from outside the program.
//!
//! The first `trace_requests` requests of round 0's open-loop stream are
//! replayed closed loop (one in flight) at each depth, each depth on its
//! own instance brought to the same warm state, so every depth does the
//! same work:
//!
//! | depth | span names | boundary timed |
//! |-------|------------|----------------|
//! | T | `transport` | one TCP round trip to `Server::serve_tcp` |
//! | W | `wire`, `json.scan` | `Server::handle_line_into` (and `JsonSlice::scan` alone) |
//! | R | `registry.*`, `wire.decode_states` | `ShardedRegistry::{ingest_day, predict, sweep}`, `ShardSession::predict_many` on pre-decoded input |
//! | K | `estimator.*`, `solver.*`, `cache.*` | the estimator, solver and cache calls the registry makes, on the benchmark's own `HistoryStore`s |
//! | L | `wal.*` | `WalWriter::{append, sync}` with the registry's record bytes and cadence |
//!
//! The depths run interleaved request by request on four live instances
//! (K and L are one [`Shadow`] replay, recorded as depth `K` under a
//! per-request `shadow` span), so a slow moment of the machine lands on
//! every depth of the same request. Self time telescopes: transport =
//! T − W, wire = W − R, registry = R − (K + L). The program's metrics are
//! on only for the T round trips of [`traced`] requests, so its counters
//! describe exactly those; the other half is the baseline of
//! `trace.overhead_pct`. `RegistryStats` comes through the `stats`/`health`
//! ops, and the rest from the spans.

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use fgcs::core::cache::KernelDedup;
use fgcs::core::log::{DayLog, HistoryStore, StateLog};
use fgcs::core::model::AvailabilityModel;
use fgcs::core::predictor::SmpPredictor;
use fgcs::core::registry::{RegistryConfig, ShardedRegistry};
use fgcs::core::smp::{FastSolver, IncrementalEstimator, SmpParams};
use fgcs::core::state::State;
use fgcs::core::window::{DayType, TimeWindow};
use fgcs::runtime::cache::LruCache;
use fgcs::runtime::json::{Json, JsonSlice, JsonWriter};
use fgcs::runtime::metrics;
use fgcs::runtime::shard::shard_of;
use fgcs::runtime::wal::WalWriter;
use fgcs::serve::{ServeConfig, Server};

use crate::client::{self, Check};
use crate::oracle;
use crate::run::{metric, open_loop_stream, Profile, Report};
use crate::server;
use crate::synth;
use crate::workload::{self, Query, Req, Workload, GRID};

/// Seconds of open-loop sending that measure the generator's lateness.
const LAG_PHASE_SECS: f64 = 1.5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Depth {
    T,
    W,
    R,
    K,
}

impl Depth {
    fn label(self) -> &'static str {
        match self {
            Depth::T => "T",
            Depth::W => "W",
            Depth::R => "R",
            Depth::K => "K",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    req: u32,
    depth: Depth,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
}

/// Spans of the whole traced run, kept in memory and written at the end.
struct Spans {
    epoch: Instant,
    list: Vec<Span>,
}

impl Spans {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, span: Span) -> u32 {
        self.list.push(span);
        (self.list.len() - 1) as u32
    }

    /// `(total ns, calls)` of every span named `name`.
    fn total(&self, name: &str) -> (f64, u64) {
        self.list
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, n), s| {
                (t + (s.end_ns - s.start_ns) as f64, n + 1)
            })
    }

    /// Total ns of every span whose name starts with one of `prefixes`.
    fn total_prefixed(&self, depth: Depth, prefixes: &[&str]) -> f64 {
        self.list
            .iter()
            .filter(|s| s.depth == depth && prefixes.iter().any(|p| s.name.starts_with(p)))
            .fold(0.0, |t, s| t + (s.end_ns - s.start_ns) as f64)
    }

    fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.list {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"req\":{},\"depth\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.req,
                s.depth.label(),
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Times `f` as a span of request `req` when `ctx` is recording.
struct Ctx<'a> {
    spans: Option<&'a mut Spans>,
    req: u32,
    depth: Depth,
    parent: Option<u32>,
}

impl Ctx<'_> {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(spans) = self.spans.as_deref_mut() else {
            return f();
        };
        let start_ns = spans.now();
        let out = f();
        let end_ns = spans.now();
        spans.push(Span {
            req: self.req,
            depth: self.depth,
            name,
            start_ns,
            end_ns,
            parent: self.parent,
        });
        out
    }
}

/// The request line as the server reads it (no newline).
fn line_of(seed: u64, req: &Req, buf: &mut Vec<u8>) -> String {
    buf.clear();
    workload::write_line(seed, req, buf);
    buf.pop();
    String::from_utf8(buf.clone()).expect("request lines are ASCII")
}

fn day_digits(seed: u64, host: u32, day: u32) -> String {
    let mut digits = Vec::new();
    synth::write_day(seed, u64::from(host), u64::from(day), &mut digits);
    String::from_utf8(digits).expect("digits are ASCII")
}

fn open_server(cfg: &ServeConfig) -> io::Result<Server> {
    Server::open(cfg).map_err(|e| io::Error::other(format!("Server::open: {e}")))
}

/// Predicted values of one replayed request, for comparing depths R and K.
type Answers = Vec<f64>;

fn registry_err(e: fgcs::core::registry::RegistryError) -> io::Error {
    io::Error::other(e.to_string())
}

/// One request at depth R: the registry call the wire layer would make,
/// on input decoded beforehand (the decode is its own span).
fn registry_op(reg: &ShardedRegistry, ctx: &mut Ctx, seed: u64, req: &Req) -> io::Result<Answers> {
    let mut got = Vec::new();
    match *req {
        Req::Ingest { host, day } => {
            let digits = day_digits(seed, host, day);
            let states = ctx
                .time("wire.decode_states", || fgcs::serve::decode_states(&digits))
                .map_err(io::Error::other)?;
            ctx.time("registry.ingest", || {
                reg.ingest_day(u64::from(host), Some(day as usize), states)
            })
            .map_err(registry_err)?;
        }
        Req::Predict { host, q } => {
            let tr = ctx.time("registry.predict", || {
                reg.predict(u64::from(host), q.day_type(), q.window(), q.init())
            });
            got.push(tr.map_err(registry_err)?);
        }
        Req::Sweep { host, q } => {
            let curve = ctx
                .time("registry.sweep", || {
                    reg.sweep(u64::from(host), q.day_type(), q.window())
                })
                .map_err(registry_err)?;
            got.push(
                curve
                    .tr(q.init(), curve.horizon_steps())
                    .map_err(io::Error::other)?,
            );
        }
        Req::Batch { host, .. } => {
            let results = ctx.time("registry.batch", || {
                let mut session = reg.session(reg.shard_index(u64::from(host)));
                (0..GRID.len())
                    .flat_map(|i| {
                        let window = Query::grid(i, false).window();
                        session.predict_many(
                            u64::from(host),
                            DayType::Weekday,
                            window,
                            &[State::S1, State::S2],
                        )
                    })
                    .collect::<Vec<_>>()
            });
            for r in results {
                got.push(r.map_err(registry_err)?);
            }
        }
    }
    Ok(got)
}

/// A server in the workload's warm state without TCP: `op` applies each
/// warm-up request, and durable workloads restart in between as
/// [`server::setup`] does.
fn open_warm(
    w: &Workload,
    hosts: u32,
    dir: &Path,
    op: &mut dyn FnMut(&Server, &Req) -> io::Result<()>,
) -> io::Result<Server> {
    let cfg = server::config(w, dir);
    let mut srv = open_server(&cfg)?;
    for req in workload::warm_ingest(hosts) {
        op(&srv, &req)?;
    }
    if w.durable {
        drop(srv);
        srv = open_server(&cfg)?;
    }
    if w.warm_grid {
        for req in workload::warm_grid(hosts) {
            op(&srv, &req)?;
        }
    }
    Ok(srv)
}

/// Whether request `req` of the replay runs traced at depth T (the
/// program's metrics on). Half the hosts are traced, so a `day_rollover`
/// ingest and its batch land on the same side; the other half is the
/// untraced baseline for `trace.overhead_pct`.
fn traced(req: &Req) -> bool {
    req.host().is_multiple_of(2)
}

/// What the replay observed besides its spans.
struct Replay {
    /// Error replies at depths T and W, and requests whose depth-K answers
    /// differ from depth R's.
    failed: u64,
    mismatched: u64,
    /// Sampled depth-T replies for the oracle.
    checks: Vec<Check>,
    /// Depth-T round-trip ns summed over traced and untraced requests.
    traced_ns: (f64, u64),
    untraced_ns: (f64, u64),
    /// The T server's program counters over the traced requests.
    counters: HashMap<String, u64>,
    /// The T server's `stats` and `health` replies before and after.
    stats: [String; 2],
    health: [String; 2],
    /// The T server's WAL bytes before and after.
    wal: [u64; 2],
    /// Generator lateness of the open-loop phase that follows, ns.
    lags: Vec<u64>,
}

fn counters() -> HashMap<String, u64> {
    metrics::registry()
        .snapshot()
        .counters
        .into_iter()
        .collect()
}

/// Depths T, W, R and K interleaved request by request on four live
/// instances, so each request meets the same machine state at every depth.
/// Afterwards the T server takes the rest of the stream open loop, which
/// measures the generator's lateness.
fn replay_depths(
    w: &Workload,
    hosts: u32,
    seed: u64,
    reqs: &[Req],
    lag_reqs: &[Req],
    spans: &mut Spans,
) -> io::Result<Replay> {
    let dirs = [
        server::fresh_dir("trace-tcp")?,
        server::fresh_dir("trace-wire")?,
        server::fresh_dir("trace-registry")?,
        server::fresh_dir("trace-shadow")?,
    ];
    let tcp = server::setup(w, &server::WarmLines::new(w, hosts, seed), &dirs[0])?.running;
    let (mut out, mut buf) = (JsonWriter::new(), Vec::new());
    let wire = open_warm(w, hosts, &dirs[1], &mut |srv, req| {
        out.clear();
        srv.handle_line_into(&line_of(seed, req, &mut buf), &mut out);
        match out.as_str().contains("\"ok\":false") {
            false => Ok(()),
            true => Err(io::Error::other(format!(
                "warm-up failed: {}",
                out.as_str()
            ))),
        }
    })?;
    let mut off = Ctx {
        spans: None,
        req: 0,
        depth: Depth::R,
        parent: None,
    };
    let registry = open_warm(w, hosts, &dirs[2], &mut |srv, req| {
        registry_op(srv.registry(), &mut off, seed, req).map(drop)
    })?;
    let mut shadow = Shadow::new();
    for req in workload::warm_ingest(hosts) {
        shadow.apply(&mut off, seed, &req)?;
    }
    if w.warm_grid {
        for req in workload::warm_grid(hosts) {
            shadow.apply(&mut off, seed, &req)?;
        }
    }
    if w.durable {
        shadow.attach_wal(&dirs[3])?;
    }

    let conn = client::connect(tcp.addr)?;
    let mut writer = &conn;
    let mut reader = client::reply_reader(&conn);
    let mut seen = Replay {
        failed: 0,
        mismatched: 0,
        checks: Vec::new(),
        traced_ns: (0.0, 0),
        untraced_ns: (0.0, 0),
        counters: HashMap::new(),
        stats: [
            client::request(tcp.addr, "{\"op\":\"stats\"}")?,
            String::new(),
        ],
        health: [
            client::request(tcp.addr, "{\"op\":\"health\"}")?,
            String::new(),
        ],
        wal: [wal_bytes(&dirs[0])?, 0],
        lags: Vec::new(),
    };
    let before = counters();
    let mut reply = Vec::new();
    for (k, req) in reqs.iter().enumerate() {
        let k32 = k as u32;
        buf.clear();
        workload::write_line(seed, req, &mut buf);
        let keep = k.is_multiple_of(16) && !matches!(req, Req::Ingest { .. });
        let mut text = String::new();
        metrics::set_enabled(traced(req));
        let start_ns = spans.now();
        writer.write_all(&buf)?;
        let ok = client::read_reply(&mut reader, req, &mut reply, keep.then_some(&mut text))?;
        let end_ns = spans.now();
        metrics::set_enabled(false);
        let side = if traced(req) {
            &mut seen.traced_ns
        } else {
            &mut seen.untraced_ns
        };
        *side = (side.0 + (end_ns - start_ns) as f64, side.1 + 1);
        spans.push(Span {
            req: k32,
            depth: Depth::T,
            name: "transport",
            start_ns,
            end_ns,
            parent: None,
        });
        if !ok {
            seen.failed += 1;
        } else if keep {
            seen.checks.push(Check {
                req: *req,
                reply: text,
            });
        }

        buf.pop();
        let line = std::str::from_utf8(&buf).expect("request lines are ASCII");
        let mut ctx = Ctx {
            spans: Some(&mut *spans),
            req: k32,
            depth: Depth::W,
            parent: None,
        };
        ctx.time("json.scan", || {
            std::hint::black_box(JsonSlice::scan(line)).is_some()
        });
        out.clear();
        ctx.time("wire", || wire.handle_line_into(line, &mut out));
        seen.failed += u64::from(out.as_str().contains("\"ok\":false"));

        ctx.depth = Depth::R;
        let at_r = registry_op(registry.registry(), &mut ctx, seed, req)?;

        let start_ns = spans.now();
        let parent = spans.push(Span {
            req: k32,
            depth: Depth::K,
            name: "shadow",
            start_ns,
            end_ns: start_ns,
            parent: None,
        });
        let mut ctx = Ctx {
            spans: Some(&mut *spans),
            req: k32,
            depth: Depth::K,
            parent: Some(parent),
        };
        let at_k = shadow.apply(&mut ctx, seed, req)?;
        spans.list[parent as usize].end_ns = spans.now();
        let bits = |v: &Answers| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        seen.mismatched += u64::from(bits(&at_r) != bits(&at_k));
    }
    let after = counters();
    seen.counters = after
        .iter()
        .map(|(name, v)| (name.clone(), v - before.get(name).copied().unwrap_or(0)))
        .collect();
    seen.wal[1] = wal_bytes(&dirs[0])?;
    seen.stats[1] = client::request(tcp.addr, "{\"op\":\"stats\"}")?;
    seen.health[1] = client::request(tcp.addr, "{\"op\":\"health\"}")?;
    drop(reader);
    drop(conn);
    let dues = workload::poisson_dues(seed, 1, lag_reqs, w.rate);
    seen.lags = client::open_loop(tcp.addr, seed, lag_reqs, &dues, &|_, _| false)?.lags;
    tcp.stop()?;
    drop((wire, registry, shadow));
    for dir in &dirs {
        server::remove_dir(dir)?;
    }
    Ok(seen)
}

/// A host in the shadow registry.
struct ShadowHost {
    history: HistoryStore,
    estimators: Vec<((DayType, TimeWindow), IncrementalEstimator)>,
}

/// Bit-exact kernels per (host, day type, window, stored days).
type QhKey = (u32, DayType, TimeWindow, usize);

struct ShadowShard {
    hosts: HashMap<u32, ShadowHost>,
    qh: LruCache<QhKey, Arc<SmpParams>>,
    wal: Option<WalWriter>,
    unsynced: u64,
}

/// Depths K and L: the estimator, solver, cache and WAL calls the sharded
/// registry makes for each request, replayed on the benchmark's own
/// histories with the registry's default configuration, so each call can
/// be timed on its own.
struct Shadow {
    predictor: SmpPredictor,
    dedup: Arc<KernelDedup>,
    shards: Vec<ShadowShard>,
    max_estimators: usize,
    fsync_every: u64,
    step: u32,
    record: JsonWriter,
}

impl Shadow {
    fn new() -> Shadow {
        let rc = RegistryConfig::default();
        let model = AvailabilityModel::default();
        Shadow {
            predictor: SmpPredictor::new(model),
            dedup: Arc::new(KernelDedup::new()),
            shards: (0..ServeConfig::default().shards)
                .map(|_| ShadowShard {
                    hosts: HashMap::new(),
                    qh: LruCache::new(rc.qh_capacity_per_shard),
                    wal: None,
                    unsynced: 0,
                })
                .collect(),
            max_estimators: rc.max_estimators_per_host,
            fsync_every: ServeConfig::default().fsync_every,
            step: model.monitor_period_secs,
            record: JsonWriter::new(),
        }
    }

    fn shard(&mut self, host: u32) -> &mut ShadowShard {
        let n = self.shards.len();
        &mut self.shards[shard_of(u64::from(host), n)]
    }

    /// Opens one WAL per shard under `dir`; the cadence counts from here,
    /// as it does after the server's restart.
    fn attach_wal(&mut self, dir: &Path) -> io::Result<()> {
        for (i, shard) in self.shards.iter_mut().enumerate() {
            shard.wal = Some(WalWriter::open(&dir.join(format!("shadow-{i}.wal")), 0, 0)?);
        }
        Ok(())
    }

    fn ingest(&mut self, ctx: &mut Ctx, host: u32, day: u32, digits: &str) -> io::Result<()> {
        let states = oracle::decode_states(digits.as_bytes());
        let step = self.step;
        let fsync_every = self.fsync_every;
        // The registry's WAL record: {"host":..,"day_index":..,"states":".."}.
        let record = &mut self.record;
        record.clear();
        record.raw("{\"host\":");
        record.u64(u64::from(host));
        record.raw(",\"day_index\":");
        record.u64(u64::from(day));
        record.raw(",\"states\":\"");
        record.raw(digits);
        record.raw("\"}");
        let n = self.shards.len();
        let shard = &mut self.shards[shard_of(u64::from(host), n)];
        if let Some(wal) = shard.wal.as_mut() {
            ctx.time("wal.append", || wal.append(record.as_str().as_bytes()))?;
            shard.unsynced += 1;
            if shard.unsynced >= fsync_every {
                ctx.time("wal.sync", || wal.sync())?;
                shard.unsynced = 0;
            }
        }
        let entry = shard.hosts.entry(host).or_insert_with(|| ShadowHost {
            history: HistoryStore::new(),
            estimators: Vec::new(),
        });
        entry
            .history
            .push_day(DayLog::new(day as usize, StateLog::new(step, states)));
        for (_, est) in &mut entry.estimators {
            ctx.time("estimator.sync", || est.sync(&entry.history));
        }
        Ok(())
    }

    fn params(
        &mut self,
        ctx: &mut Ctx,
        host: u32,
        dt: DayType,
        window: TimeWindow,
    ) -> io::Result<Arc<SmpParams>> {
        let predictor = self.predictor;
        let step = self.step;
        let max_estimators = self.max_estimators;
        let dedup = Arc::clone(&self.dedup);
        let shard = self.shard(host);
        let entry = shard
            .hosts
            .get_mut(&host)
            .ok_or_else(|| io::Error::other(format!("shadow: unknown host {host}")))?;
        let key = (host, dt, window, entry.history.len());
        if let Some(p) = ctx.time("cache.lookup", || shard.qh.get(&key).cloned()) {
            return Ok(p);
        }
        let ShadowHost {
            history,
            estimators,
        } = entry;
        let slot = match estimators.iter().position(|(c, _)| *c == (dt, window)) {
            Some(i) => Some(i),
            None if estimators.len() < max_estimators => {
                estimators.push((
                    (dt, window),
                    IncrementalEstimator::new(step, dt, window, None),
                ));
                Some(estimators.len() - 1)
            }
            None => None,
        };
        let params = match slot {
            Some(i) => ctx.time("estimator.build", || {
                estimators[i].1.sync_and_params(history)
            }),
            None => ctx.time("estimator.fullscan", || {
                predictor.estimate_params(history, dt, window).ok()
            }),
        }
        .ok_or_else(|| io::Error::other("shadow: empty history"))?;
        let params = ctx.time("cache.intern", || dedup.intern(Arc::new(params)));
        ctx.time("cache.lookup", || shard.qh.put(key, Arc::clone(&params)));
        Ok(params)
    }

    fn predict_many(
        &mut self,
        ctx: &mut Ctx,
        host: u32,
        q: Query,
        inits: &[State],
    ) -> io::Result<Vec<f64>> {
        let params = self.params(ctx, host, q.day_type(), q.window())?;
        let steps = q.window().steps(self.step);
        let key = |s: State| ((steps as u64) << 4) | s.index() as u64;
        let dedup = Arc::clone(&self.dedup);
        let mut out: Vec<Option<f64>> = inits
            .iter()
            .map(|&s| ctx.time("cache.lookup", || dedup.memo_get(&params, key(s))))
            .collect();
        if out.iter().any(Option::is_none) {
            let solver = FastSolver::new(&params);
            // A single predict runs the scalar solve, a batch one curve,
            // as the registry does.
            let values: Vec<f64> = if inits.len() == 1 {
                let tr = ctx.time("solver.tr", || solver.temporal_reliability(inits[0], steps));
                vec![tr.map_err(io::Error::other)?]
            } else {
                let curve = ctx
                    .time("solver.curve", || solver.tr_curve(steps))
                    .map_err(io::Error::other)?;
                inits
                    .iter()
                    .map(|&s| curve.tr(s, steps))
                    .collect::<Result<_, _>>()
                    .map_err(io::Error::other)?
            };
            for ((slot, &s), v) in out.iter_mut().zip(inits).zip(values) {
                if slot.is_none() {
                    ctx.time("cache.lookup", || dedup.memo_put(&params, key(s), v));
                    *slot = Some(v);
                }
            }
        }
        Ok(out
            .into_iter()
            .map(|v| v.expect("every init answered"))
            .collect())
    }

    fn sweep(&mut self, ctx: &mut Ctx, host: u32, q: Query) -> io::Result<f64> {
        let params = self.params(ctx, host, q.day_type(), q.window())?;
        let steps = q.window().steps(self.step);
        let curve = ctx
            .time("solver.curve", || FastSolver::new(&params).tr_curve(steps))
            .map_err(io::Error::other)?;
        curve.tr(q.init(), steps).map_err(io::Error::other)
    }

    fn apply(&mut self, ctx: &mut Ctx, seed: u64, req: &Req) -> io::Result<Answers> {
        Ok(match *req {
            Req::Ingest { host, day } => {
                let digits = day_digits(seed, host, day);
                self.ingest(ctx, host, day, &digits)?;
                Vec::new()
            }
            Req::Predict { host, q } => self.predict_many(ctx, host, q, &[q.init()])?,
            Req::Sweep { host, q } => vec![self.sweep(ctx, host, q)?],
            Req::Batch { host, .. } => {
                let mut got = Vec::with_capacity(8);
                for i in 0..GRID.len() {
                    got.extend(self.predict_many(
                        ctx,
                        host,
                        Query::grid(i, false),
                        &[State::S1, State::S2],
                    )?);
                }
                got
            }
        })
    }
}

fn json_u64(reply: &str, name: &str) -> io::Result<u64> {
    Json::parse(reply)
        .ok()
        .and_then(|j| j.field(name).ok().and_then(Json::as_u64))
        .ok_or_else(|| io::Error::other(format!("reply lacks {name}: {reply}")))
}

fn wal_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_name().to_string_lossy().ends_with(".wal") {
            total += entry.metadata()?.len();
        }
    }
    Ok(total)
}

/// The kill -9 restart: warm history written through `handle_line_into`
/// on a durable server that is then dropped without `shutdown`, and the
/// time `Server::open` takes to recover it, in days per second.
fn replay_rate(w: &Workload, hosts: u32, seed: u64) -> io::Result<f64> {
    let dir = server::fresh_dir("trace-recovery")?;
    let cfg = server::config(w, &dir);
    let srv = open_server(&cfg)?;
    let (mut out, mut buf) = (JsonWriter::new(), Vec::new());
    for req in workload::warm_ingest(hosts) {
        out.clear();
        srv.handle_line_into(&line_of(seed, &req, &mut buf), &mut out);
    }
    drop(srv);
    let start = Instant::now();
    let recovered = open_server(&cfg)?;
    let secs = start.elapsed().as_secs_f64();
    let days = recovered.registry().stats().days;
    drop(recovered);
    server::remove_dir(&dir)?;
    Ok(days as f64 / secs)
}

pub fn trace(w: &Workload, seed: u64, p: &Profile, spans_out: &Path) -> io::Result<Report> {
    let hosts = p.hosts;
    let n = w.trace_requests.min(p.trace_cap);
    let n_lag = (w.rate * LAG_PHASE_SECS).round() as usize;
    let reqs = open_loop_stream(w, hosts, seed, 0).take(n + n_lag);
    let (replay, lag_reqs) = reqs.split_at(n);
    let mut spans = Spans {
        epoch: Instant::now(),
        list: Vec::new(),
    };
    let mut seen = replay_depths(w, hosts, seed, replay, lag_reqs, &mut spans)?;
    let replay_days_per_s = if w.durable {
        replay_rate(w, hosts, seed)?
    } else {
        0.0
    };
    spans.write_jsonl(spans_out)?;

    let mut report = Report::default();
    let (wrong, first) = oracle::verify(seed, &mut seen.checks);
    report.attempted = n as u64;
    report.failed = seen.failed + seen.mismatched + wrong;
    report.first_error = first.or_else(|| {
        (seen.mismatched > 0).then(|| {
            format!(
                "{} requests: shadow registry answers differ from the registry",
                seen.mismatched
            )
        })
    });

    let nf = n as f64;
    let per_req = |ns: f64| ns / nf / 1e3;
    let per_call = |name: &str| {
        let (t, calls) = spans.total(name);
        if calls == 0 {
            0.0
        } else {
            t / calls as f64 / 1e3
        }
    };
    let t = spans.total("transport").0;
    let wire = spans.total("wire").0;
    let registry = spans.total_prefixed(Depth::R, &["registry."]);
    let kernel = spans.total_prefixed(Depth::K, &["estimator.", "solver.", "cache."]);
    let wal = spans.total_prefixed(Depth::K, &["wal."]);
    let count = |name: &str| seen.counters.get(name).copied().unwrap_or(0);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let diff = |pair: &[String; 2], name: &str| -> io::Result<u64> {
        Ok(json_u64(&pair[1], name)? - json_u64(&pair[0], name)?)
    };
    let traced_reqs: Vec<&Req> = replay.iter().filter(|r| traced(r)).collect();
    let predicts: u64 = traced_reqs.iter().map(|r| r.predicts()).sum();
    let (qh_hits, qh_misses) = (count("core.qh_cache.hits"), count("core.qh_cache.misses"));
    let user_bytes: u64 = replay
        .iter()
        .filter(|r| matches!(r, Req::Ingest { .. }))
        .map(|r| {
            let mut line = Vec::new();
            workload::write_line(seed, r, &mut line);
            line.len() as u64
        })
        .sum();
    let mean = |(ns, k): (f64, u64)| ns / k.max(1) as f64;
    let lag_p99 = crate::stats::percentile(&mut seen.lags, 0.99).unwrap_or(0) as f64 / 1e3;

    report.metrics = vec![
        metric("transport.self_us", per_req(t - wire), "us/req"),
        metric("transport.gen_lag_p99_us", lag_p99, "us"),
        metric("wire.self_us", per_req(wire - registry), "us/req"),
        metric("json.scan_us", per_call("json.scan"), "us/call"),
        metric(
            "wire.decode_states_us",
            per_call("wire.decode_states"),
            "us/call",
        ),
        metric(
            "wire.read_buf_hwm",
            json_u64(&seen.stats[1], "read_buf_hwm")? as f64,
            "bytes",
        ),
        metric("registry.ingest_us", per_call("registry.ingest"), "us/call"),
        metric(
            "registry.predict_us",
            per_call("registry.predict"),
            "us/call",
        ),
        metric("registry.sweep_us", per_call("registry.sweep"), "us/call"),
        metric("registry.batch_us", per_call("registry.batch"), "us/call"),
        metric(
            "registry.self_us",
            per_req(registry - kernel - wal),
            "us/req",
        ),
        metric(
            "cache.qh_hit_ratio",
            ratio(qh_hits, qh_hits + qh_misses),
            "ratio",
        ),
        metric(
            "cache.dedup_hit_ratio",
            ratio(
                diff(&seen.stats, "kernel_dedup_hits")?,
                diff(&seen.stats, "kernel_dedup_lookups")?,
            ),
            "ratio",
        ),
        metric(
            "cache.qh_evictions",
            count("core.qh_cache.evictions") as f64,
            "count",
        ),
        metric(
            "cache.solver_runs_per_predict",
            ratio(count("core.solver.fast_runs"), predicts),
            "ratio",
        ),
        metric("cache.intern_us", per_call("cache.intern"), "us/call"),
        metric(
            "cache.lookup_us",
            per_req(spans.total_prefixed(Depth::K, &["cache.lookup"])),
            "us/req",
        ),
        metric("estimator.sync_us", per_call("estimator.sync"), "us/call"),
        metric("estimator.build_us", per_call("estimator.build"), "us/call"),
        metric(
            "estimator.fullscan_us",
            per_call("estimator.fullscan"),
            "us/call",
        ),
        metric(
            "estimator.rebuilds",
            count("core.registry.incremental_rebuilds") as f64,
            "count",
        ),
        metric(
            "estimator.fullscan_fallbacks",
            count("core.registry.fullscan_fallbacks") as f64,
            "count",
        ),
        metric("solver.tr_us", per_call("solver.tr"), "us/call"),
        metric("solver.curve_us", per_call("solver.curve"), "us/call"),
        metric(
            "solver.steps_per_predict",
            ratio(count("core.solver.fast_steps"), predicts),
            "steps",
        ),
        metric("wal.append_us", per_call("wal.append"), "us/call"),
        metric("wal.sync_us", per_call("wal.sync"), "us/call"),
        metric(
            "wal.bytes_per_user_byte",
            ratio(seen.wal[1] - seen.wal[0], user_bytes),
            "ratio",
        ),
        metric(
            "wal.unsynced_records",
            (json_u64(&seen.health[1], "wal_records")?
                - json_u64(&seen.health[1], "wal_synced_records")?) as f64,
            "count",
        ),
        metric(
            "wal.snapshots",
            diff(&seen.health, "snapshots_written")? as f64,
            "count",
        ),
        metric("wal.replay_days_per_s", replay_days_per_s, "days/s"),
        metric(
            "trace.overhead_pct",
            (mean(seen.traced_ns) / mean(seen.untraced_ns) - 1.0) * 100.0,
            "%",
        ),
        metric("trace.requests", traced_reqs.len() as f64, "count"),
    ];
    report.notes = vec![metric(
        "error_rate",
        ratio(report.failed, report.attempted),
        "ratio",
    )];
    Ok(report)
}
