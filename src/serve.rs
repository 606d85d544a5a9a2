//! Long-running prediction service: a JSON-lines protocol over the
//! [`ShardedRegistry`].
//!
//! The wire format is one JSON object per line in both directions, built on
//! the in-tree [`fgcs_runtime::json`] codec (the workspace stays std-only).
//! Requests carry an `"op"` field:
//!
//! | op        | request fields                                               |
//! |-----------|--------------------------------------------------------------|
//! | `ping`    | —                                                            |
//! | `ingest`  | `host`, `states` (digits `1`–`5`), optional `day_index`      |
//! | `predict` | `host`, `start`, `hours`, opt. `day_type`, `init`            |
//! | `sweep`   | `host`, `start`, `hours`, opt. `day_type`, `init`, `points`  |
//! | `batch`   | `ops`: array of `ping`/`ingest`/`predict`/`sweep` requests   |
//! | `host`    | `host` — stored-day count (readiness probe after recovery)   |
//! | `health`  | — liveness/durability document for load balancers            |
//! | `stats`   | —                                                            |
//! | `shutdown`| —                                                            |
//!
//! Successful replies carry `"ok": true` — except `sweep`, whose reply is
//! exactly the JSON the `fgcs sweep --json` CLI prints for the same
//! history ([`write_sweep`] is the one renderer of both), so a streamed
//! serve answer can be byte-compared against the offline CLI answer.
//! Failures of any op are `{"ok":false,"error":"…"}`; a malformed line
//! never kills the connection.
//!
//! # Wire-path memory discipline
//!
//! The request path is allocation-free once warm. Every line is walked
//! once, in place, by [`JsonSlice`] — a borrowed view that never builds a
//! tree and captures each request field as the walk validates it — and
//! replies, the `sweep` document included, are written straight into a
//! pooled [`JsonWriter`] whose buffer is cleared (capacity kept) between
//! requests. The view runs the JSON reader's one descent in its validate
//! mode, whose string rule decodes `\` escapes; only an escaped string
//! allocates, for its decoded text. A line the scan rejects (malformed
//! syntax, a non-object top level) gets an error reply worded by the same
//! descent in its build mode ([`Json::parse`]); nothing falls back to a
//! second dispatcher. Field errors ([`SliceError`]) render their message
//! only when the error reply is written. Both transports run one read
//! loop that reuses one read buffer and one reply buffer per connection;
//! `stats` reports the high-water marks of both pools.
//!
//! # Batch requests
//!
//! `{"op":"batch","ops":[…]}` answers each nested op with its own reply
//! line, concatenated in request order — byte-identical to sending the ops
//! as individual lines, because each op runs in request order through the
//! same handler a line of its own takes, its reply written straight into
//! the connection's pooled reply buffer. Each op is captured in the walk
//! that finds its end in the `ops` array, so a batch line is walked twice:
//! once by the scan that validates it, once op by op. Predicts in one
//! batch share solves through the registry's per-kernel solve memo: one
//! Eq.-3 run stores the TR from both operational initial states, so a
//! batch asking S1 and S2 for one coordinate solves once. `stats`, `shutdown`, `health`, `host`
//! and nested `batch` ops are rejected per-op; an empty `ops` array is an
//! error. A panic in any op rolls back the whole batch reply, as for any
//! other request.
//!
//! The same [`Server`] drives both transports:
//!
//! * [`Server::serve_lines`] — oneshot batch mode (`fgcs serve --oneshot`):
//!   requests on stdin, replies on stdout, exits at EOF or `shutdown`;
//! * [`Server::serve_tcp`] — a [`TcpListener`] accept loop
//!   (`fgcs serve`), thread-per-connection over the shared registry, shut
//!   down cleanly by the `shutdown` op from any connection.
//!
//! # Hardened transport
//!
//! Both transports read request lines through one bounded reader
//! ([`fgcs_runtime::line::read_bounded_line`], which finds each line's end
//! a block of bytes at a time): a line longer than
//! [`ServeConfig::max_line_bytes`] is drained (in buffered chunks, never
//! materialized) and answered with a structured
//! `{"ok":false,"code":"too_large",…}` reply, after which the connection
//! keeps working. TCP connections additionally get a per-connection read
//! and write deadline ([`ServeConfig::read_timeout`]) so a stalled peer
//! releases its thread, and the accept loop sheds connections beyond
//! [`ServeConfig::max_connections`] with a one-line `busy` reply instead
//! of growing without bound. Each request is wrapped in
//! [`std::panic::catch_unwind`]: a panicking handler yields a structured
//! `panic` error reply, the half-written reply bytes are rolled back, and
//! any shard mutex poisoned by the unwind is recovered by the registry —
//! the shard keeps serving, its predictions tagged `"quality":"stale"`
//! (the wire's own word for a poisoned shard, not a
//! [`fgcs_core::robust::PredictionQuality`] tier) until the process is
//! restarted. With [`ServeConfig::data_dir`] set the registry
//! write-ahead-logs every ingest before acknowledging it and the server
//! fsyncs + snapshots on graceful shutdown; see the fgcs-core registry
//! docs for the durability model.

use std::borrow::Cow;
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use fgcs_core::batch::TrCurve;
use fgcs_core::log::StateLog;
use fgcs_core::registry::{IngestAck, RegistryConfig, RegistryError, ShardedRegistry};
use fgcs_core::state::{self, State};
use fgcs_core::window::{DayType, TimeWindow, SECS_PER_DAY};
use fgcs_runtime::json::{Field, Json, JsonSlice, JsonSliceArray, JsonWriter, SliceError};
use fgcs_runtime::line::{read_bounded_line, LineRead};

/// Configuration for [`Server::new`] / [`Server::open`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Registry shard count (see [`RegistryConfig::shards`]).
    pub shards: usize,
    /// Sliding history bound per host and coordinate (`None` = unbounded).
    pub max_history_days: Option<usize>,
    /// Longest accepted request line in bytes (newline excluded). Longer
    /// lines are drained and answered with a `too_large` error reply;
    /// the read buffer never grows past this bound.
    pub max_line_bytes: usize,
    /// Per-TCP-connection read *and* write deadline (`None` = block
    /// forever). A peer idle past the deadline is disconnected, freeing
    /// its handler thread.
    pub read_timeout: Option<Duration>,
    /// Simultaneous TCP connections served; further accepts are shed with
    /// a one-line `busy` reply.
    pub max_connections: usize,
    /// Durability root (per-shard WAL + snapshots). `None` keeps the
    /// registry in memory only (see [`RegistryConfig::data_dir`]).
    pub data_dir: Option<PathBuf>,
    /// WAL fsync cadence (see [`RegistryConfig::fsync_every`]).
    pub fsync_every: u64,
    /// Snapshot cadence in WAL appends (see
    /// [`RegistryConfig::snapshot_every`]).
    pub snapshot_every: u64,
    /// Enables the `debug_panic` op, which panics inside the request
    /// handler — the chaos/containment test hook. Off in production: the
    /// op is then an ordinary unknown-op error.
    pub debug_ops: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            shards: 8,
            max_history_days: None,
            max_line_bytes: 8 << 20,
            read_timeout: Some(Duration::from_secs(120)),
            max_connections: 256,
            data_dir: None,
            fsync_every: 256,
            snapshot_every: 4096,
            debug_ops: false,
        }
    }
}

/// One handled request: the reply line(s) (no trailing newline) and
/// whether the request asked the service to stop. A `batch` request yields
/// one reply line per nested op, joined by `'\n'`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// The serialized JSON reply.
    pub line: String,
    /// `true` when the request was a `shutdown` op.
    pub shutdown: bool,
}

/// Canned replies for the field-free ops (no allocation, no formatting).
const PING_LINE: &str = "{\"ok\":true,\"op\":\"ping\"}\n";
const SHUTDOWN_LINE: &str = "{\"ok\":true,\"op\":\"shutdown\"}\n";
const EMPTY_BATCH: &str = "batch needs at least one op";
/// Shed reply for connections beyond the configured limit.
const BUSY_LINE: &str =
    "{\"ok\":false,\"code\":\"busy\",\"error\":\"connection limit reached, retry later\"}\n";
/// Containment reply when a request handler panicked.
const PANIC_LINE: &str =
    "{\"ok\":false,\"code\":\"panic\",\"error\":\"internal error: request handler panicked\"}\n";
/// Reply for request bytes that are not UTF-8 (the protocol is JSON text).
const BAD_UTF8_LINE: &str =
    "{\"ok\":false,\"code\":\"bad_utf8\",\"error\":\"request line is not valid UTF-8\"}\n";

/// The prediction service: a [`ShardedRegistry`] plus the JSON-lines
/// protocol. Transport-agnostic; see [`Server::serve_lines`] and
/// [`Server::serve_tcp`].
pub struct Server {
    registry: ShardedRegistry,
    /// Request-line length cap (bytes, newline excluded).
    max_line_bytes: usize,
    /// Per-connection read/write deadline for the TCP transport.
    read_timeout: Option<Duration>,
    /// TCP connection-count limit; excess accepts are shed.
    max_connections: usize,
    /// Whether the `debug_panic` containment hook is armed.
    debug_ops: bool,
    /// Largest request line (bytes) handled so far — the steady-state size
    /// of a pooled read buffer.
    read_hwm: AtomicU64,
    /// Most reply bytes written for a single request — the steady-state
    /// size of a pooled reply buffer.
    write_hwm: AtomicU64,
    /// Requests handled since startup (the `health` op's logical uptime —
    /// wall-clock-free, so health replies stay deterministic under test).
    requests: AtomicU64,
    /// Request handlers that panicked and were contained.
    panics: AtomicU64,
    /// Predict replies answered from a poisoned (degraded) shard.
    degraded_predictions: AtomicU64,
    /// Currently open TCP connections.
    active_connections: AtomicU64,
    /// Connections shed with the `busy` reply.
    shed_connections: AtomicU64,
    /// Request lines rejected for exceeding `max_line_bytes`.
    oversize_lines: AtomicU64,
}

/// One decoded request. Every field is `Copy`, borrows from the input line
/// or is an ingest's day cut into runs, so a warm query decodes without
/// allocating.
enum Request<'a> {
    Ping,
    Shutdown,
    Stats,
    Health,
    Host { host: u64 },
    Batch(JsonSliceArray<'a>),
    Op(ShardOp),
}

/// A registry-bound op, decoded the same way on its own line and inside a
/// `batch`.
enum ShardOp {
    Ingest {
        host: u64,
        day_index: Option<usize>,
        log: StateLog,
    },
    Predict {
        at: Coords,
        init: State,
    },
    Sweep {
        at: Coords,
        init: State,
        points: usize,
    },
}

/// Where a `predict` or `sweep` looks.
#[derive(Clone, Copy)]
struct Coords {
    host: u64,
    day_type: DayType,
    window: TimeWindow,
}

/// A protocol error. Field-shape errors ([`SliceError`]) and op names
/// stay borrowed; only the validators that already build owned messages
/// ([`parse_window`] & friends) carry a `String` — and every variant
/// formats its message only when the error reply is written.
enum WireError<'a> {
    Slice(SliceError),
    UnknownOp(Cow<'a, str>),
    NotInBatch(Cow<'a, str>),
    Msg(String),
}

impl fmt::Display for WireError<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Slice(e) => e.fmt(f),
            WireError::UnknownOp(op) => write!(f, "unknown op `{op}`"),
            WireError::NotInBatch(op) => write!(f, "op `{op}` not allowed inside batch"),
            WireError::Msg(m) => f.write_str(m),
        }
    }
}

impl From<SliceError> for WireError<'_> {
    fn from(e: SliceError) -> Self {
        WireError::Slice(e)
    }
}

/// Decodes one request object from the fields its scan captured. `op` is
/// resolved first, so inside a batch (`in_batch`) a control op is refused
/// before any of its fields are read; then each op reads its fields in a
/// fixed order, and the first bad one names the error. An ingest's
/// `states` digits are validated and cut straight into the runs of a day
/// sampled every `step_secs`; the samples are never built.
// lint: no-alloc
fn parse_request<'a>(
    s: &JsonSlice<'a>,
    in_batch: bool,
    step_secs: u32,
) -> Result<Request<'a>, WireError<'a>> {
    let op = s.str(Field::Op)?;
    Ok(match &*op {
        "ping" => Request::Ping,
        "ingest" => {
            let host = s.u64(Field::Host)?;
            let day_index = s.opt_u64(Field::DayIndex)?.map(|d| d as usize);
            let digits = s.str(Field::States)?;
            let log = StateLog::from_digits(step_secs, digits.as_bytes())
                .map_err(|at| WireError::Msg(bad_digit(&digits, at)))?;
            Request::Op(ShardOp::Ingest {
                host,
                day_index,
                log,
            })
        }
        "predict" => {
            let (at, init) = parse_query(s)?;
            Request::Op(ShardOp::Predict { at, init })
        }
        "sweep" => {
            let (at, init) = parse_query(s)?;
            let points = s.opt_u64(Field::Points)?.unwrap_or(12) as usize;
            Request::Op(ShardOp::Sweep { at, init, points })
        }
        "stats" | "shutdown" | "batch" | "health" | "host" if in_batch => {
            return Err(WireError::NotInBatch(op))
        }
        "stats" => Request::Stats,
        "shutdown" => Request::Shutdown,
        "health" => Request::Health,
        "host" => Request::Host {
            host: s.u64(Field::Host)?,
        },
        "batch" => Request::Batch(s.array(Field::Ops)?),
        _ => return Err(WireError::UnknownOp(op)),
    })
}

/// The `predict`/`sweep` query fields: `host`, `start`/`hours`
/// (fractional hours), optional `day_type` (default weekday) and `init`
/// (default S1), read in that order; the window is checked last.
// lint: no-alloc
fn parse_query<'a>(s: &JsonSlice<'a>) -> Result<(Coords, State), WireError<'a>> {
    let host = s.u64(Field::Host)?;
    let start = s.f64(Field::Start)?;
    let hours = s.f64(Field::Hours)?;
    let day_type = match s.opt_str(Field::DayType)? {
        None => DayType::Weekday,
        Some(v) => parse_day_type(&v).map_err(WireError::Msg)?,
    };
    let init = match s.opt_str(Field::Init)? {
        None => State::S1,
        Some(v) => parse_init(&v).map_err(WireError::Msg)?,
    };
    let window = parse_window(start, hours).map_err(WireError::Msg)?;
    let at = Coords {
        host,
        day_type,
        window,
    };
    Ok((at, init))
}

/// `{"ok":false,"error":…}` with the message rendered straight into the
/// reply buffer (escaped on the fly, no intermediate `String`).
// lint: no-alloc
fn write_error_line(out: &mut JsonWriter, err: &dyn fmt::Display) {
    out.raw("{\"ok\":false,\"error\":");
    out.display_string(err);
    out.raw("}\n");
}

/// The error reply for text [`JsonSlice`] could not take as an object: a
/// whole request line, or one `batch` element. The tree parser words the
/// syntax error, or names the kind of value that is not an object. Besides
/// a `batch` line, whose `ops` array [`Server::run_batch`] walks again to
/// capture each op, this error path is the one place a line's bytes are
/// walked a second time.
fn write_unscanned_line(out: &mut JsonWriter, text: &str) {
    match Json::parse(text) {
        Err(e) => write_error_line(out, &format_args!("bad request: {e}")),
        Ok(value) => write_error_line(
            out,
            &format_args!(
                "json error: expected object with field `op`, found {}",
                value.kind()
            ),
        ),
    }
}

/// A tree document (`stats`, `health`) as one reply line.
fn write_doc_line(out: &mut JsonWriter, doc: &Json) {
    out.json(doc);
    out.raw_char('\n');
}

/// The `ingest` reply: the ack, or why the day was refused.
// lint: no-alloc
fn write_ingest_reply(out: &mut JsonWriter, ack: Result<IngestAck, RegistryError>) {
    let ack = match ack {
        Ok(ack) => ack,
        Err(e) => return write_error_line(out, &e),
    };
    out.raw("{\"ok\":true,\"op\":\"ingest\",\"host\":");
    out.u64(ack.host);
    out.raw(",\"day_index\":");
    out.u64(ack.day_index as u64);
    out.raw(",\"days\":");
    out.u64(ack.days as u64);
    out.raw("}\n");
}

/// The `sweep` reply: the [`write_sweep`] document, or the error.
// lint: no-alloc
fn write_sweep_reply(
    out: &mut JsonWriter,
    at: Coords,
    init: State,
    points: usize,
    curve: Result<TrCurve, RegistryError>,
) {
    match curve {
        Err(e) => write_error_line(out, &e),
        Ok(curve) => match write_sweep(out, &curve, at.day_type, at.window, init, points) {
            Ok(()) => out.raw_char('\n'),
            Err(msg) => write_error_line(out, &msg),
        },
    }
}

/// The `host` readiness reply: how many days the registry stores for one
/// host (what a recovered server has actually replayed).
// lint: no-alloc
fn write_host_line(out: &mut JsonWriter, host: u64, days: usize) {
    out.raw("{\"ok\":true,\"op\":\"host\",\"host\":");
    out.u64(host);
    out.raw(",\"days\":");
    out.u64(days as u64);
    out.raw("}\n");
}

impl Server {
    /// Creates a service with an empty registry.
    ///
    /// # Panics
    /// Panics when [`ServeConfig::data_dir`] is set and opening it fails —
    /// use [`Server::open`] to handle durability errors.
    #[must_use]
    pub fn new(config: &ServeConfig) -> Server {
        Server::open(config).expect("opening the registry data dir")
    }

    /// Creates a service, recovering any prior state from
    /// [`ServeConfig::data_dir`] when set (snapshot load + WAL replay; see
    /// [`ShardedRegistry::open`]).
    ///
    /// # Errors
    /// Returns the registry's error when the data dir cannot be scanned,
    /// created or replayed.
    pub fn open(config: &ServeConfig) -> Result<Server, RegistryError> {
        let registry = ShardedRegistry::open(RegistryConfig {
            shards: config.shards,
            max_history_days: config.max_history_days,
            data_dir: config.data_dir.clone(),
            fsync_every: config.fsync_every,
            snapshot_every: config.snapshot_every,
            ..RegistryConfig::default()
        })?;
        Ok(Server {
            registry,
            max_line_bytes: config.max_line_bytes,
            read_timeout: config.read_timeout,
            max_connections: config.max_connections.max(1),
            debug_ops: config.debug_ops,
            read_hwm: AtomicU64::new(0),
            write_hwm: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            degraded_predictions: AtomicU64::new(0),
            active_connections: AtomicU64::new(0),
            shed_connections: AtomicU64::new(0),
            oversize_lines: AtomicU64::new(0),
        })
    }

    /// The registry behind the service.
    #[must_use]
    pub fn registry(&self) -> &ShardedRegistry {
        &self.registry
    }

    /// The sampling step of an ingested day.
    fn step_secs(&self) -> u32 {
        self.registry.model().monitor_period_secs
    }

    /// Handles one request line and renders the reply. Never panics on
    /// malformed input: protocol errors become `{"ok":false,…}` replies.
    ///
    /// Convenience wrapper over
    /// [`handle_line_into`](Server::handle_line_into) that allocates a
    /// fresh reply `String`; the serving loops use the pooled variant.
    #[must_use]
    pub fn handle_line(&self, line: &str) -> Reply {
        let mut out = JsonWriter::new();
        let shutdown = self.handle_line_into(line, &mut out);
        let mut line = out.as_str().to_string();
        line.pop(); // every reply line is '\n'-terminated
        Reply { line, shutdown }
    }

    /// Handles one request line, appending one `'\n'`-terminated reply
    /// line per answered op (one line for everything except `batch`) to
    /// `out`. Returns `true` when the request was a `shutdown` op.
    ///
    /// This is the zero-allocation hot path: with a warm `out` buffer, a
    /// `ping` or cache-hit `predict` request allocates nothing — the line
    /// is scanned in place and the reply is formatted into the pooled
    /// buffer. The caller owns clearing `out` between requests.
    ///
    /// A handler panic is contained here: the half-written reply is rolled
    /// back and replaced by a structured `panic` error line, so one bad
    /// request never takes down a transport loop. Any shard mutex poisoned
    /// by the unwind is recovered by the registry; that shard's predict
    /// replies carry `"quality":"stale"` from then on.
    // lint: no-alloc
    pub fn handle_line_into(&self, line: &str, out: &mut JsonWriter) -> bool {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.read_hwm
            .fetch_max(line.len() as u64, Ordering::Relaxed);
        let before = out.len();
        let shutdown = match catch_unwind(AssertUnwindSafe(|| self.dispatch(line, out))) {
            Ok(shutdown) => shutdown,
            Err(_) => {
                self.panics.fetch_add(1, Ordering::Relaxed);
                out.truncate(before);
                out.raw(PANIC_LINE);
                false
            }
        };
        self.write_hwm
            .fetch_max((out.len() - before) as u64, Ordering::Relaxed);
        shutdown
    }

    /// Decodes one request line and writes its reply.
    fn dispatch(&self, line: &str, out: &mut JsonWriter) -> bool {
        let Some(req) = JsonSlice::scan(line) else {
            write_unscanned_line(out, line);
            return false;
        };
        if self.debug_ops && matches!(req.str(Field::Op).as_deref(), Ok("debug_panic")) {
            panic!("debug_panic op (containment test hook)");
        }
        match parse_request(&req, false, self.step_secs()) {
            Err(e) => write_error_line(out, &e),
            Ok(Request::Ping) => out.raw(PING_LINE),
            Ok(Request::Shutdown) => {
                out.raw(SHUTDOWN_LINE);
                return true;
            }
            Ok(Request::Stats) => write_doc_line(out, &self.stats_json()),
            Ok(Request::Health) => write_doc_line(out, &self.health_json()),
            Ok(Request::Host { host }) => match self.registry.host_days(host) {
                Some(days) => write_host_line(out, host, days),
                None => write_error_line(out, &RegistryError::UnknownHost(host)),
            },
            Ok(Request::Batch(ops)) => self.run_batch(ops, out),
            Ok(Request::Op(op)) => self.run_op(op, out),
        }
        false
    }

    /// One registry-bound op, on its own line or inside a `batch`: the
    /// registry's scalar calls, each taking the host's shard lock for
    /// itself.
    fn run_op(&self, op: ShardOp, out: &mut JsonWriter) {
        match op {
            ShardOp::Ingest {
                host,
                day_index,
                log,
            } => write_ingest_reply(out, self.registry.ingest_log(host, day_index, log)),
            ShardOp::Predict { at, init } => {
                let tr = self.registry.predict(at.host, at.day_type, at.window, init);
                self.write_predict_reply(out, at, init, tr);
            }
            ShardOp::Sweep { at, init, points } => {
                let curve = self.registry.sweep(at.host, at.day_type, at.window);
                write_sweep_reply(out, at, init, points, curve);
            }
        }
    }

    /// The `batch` op: each nested op in request order, through the same
    /// [`run_op`](Server::run_op) as a line of its own, its reply written
    /// straight into `out` — so the reply stream is the one the ops would
    /// get as separate lines. Each op's fields are captured as the array
    /// walk reaches it.
    fn run_batch(&self, ops: JsonSliceArray<'_>, out: &mut JsonWriter) {
        let mut empty = true;
        for element in ops {
            empty = false;
            match element.map(|el| parse_request(&el, true, self.step_secs())) {
                Ok(Ok(Request::Op(op))) => self.run_op(op, out),
                Ok(Ok(Request::Ping)) => out.raw(PING_LINE),
                Ok(Ok(_)) => unreachable!("parse_request refuses control ops in a batch"),
                Ok(Err(e)) => write_error_line(out, &e),
                Err(raw) => write_unscanned_line(out, raw),
            }
        }
        if empty {
            write_error_line(out, &EMPTY_BATCH);
        }
    }

    /// The `predict` reply: the TR — tagged `"quality":"stale"` when the
    /// host's shard answered after poison recovery — or the error. A
    /// healthy shard's reply bytes are unchanged from before the
    /// hardening, so byte-compare oracles over healthy servers still hold.
    // lint: no-alloc
    fn write_predict_reply(
        &self,
        out: &mut JsonWriter,
        at: Coords,
        init: State,
        tr: Result<f64, RegistryError>,
    ) {
        let tr = match tr {
            Ok(tr) => tr,
            Err(e) => return write_error_line(out, &e),
        };
        out.raw("{\"ok\":true,\"op\":\"predict\",\"host\":");
        out.u64(at.host);
        out.raw(",\"window\":");
        out.display_string(&at.window);
        out.raw(",\"day_type\":");
        out.display_string(&at.day_type);
        out.raw(",\"init\":");
        out.display_string(&init);
        out.raw(",\"tr\":");
        out.f64(tr);
        if self.predict_degraded(at.host) {
            out.raw(",\"quality\":\"stale\"");
        }
        out.raw("}\n");
    }

    /// The `stats` reply document: registry counters, kernel-dedup
    /// effectiveness, and the pooled-buffer high-water marks.
    fn stats_json(&self) -> Json {
        let stats = self.registry.stats();
        let hit_rate = if stats.kernel_dedup_lookups == 0 {
            0.0
        } else {
            stats.kernel_dedup_hits as f64 / stats.kernel_dedup_lookups as f64
        };
        ok_reply(
            "stats",
            vec![
                ("shards".into(), Json::U64(stats.shards as u64)),
                ("hosts".into(), Json::U64(stats.hosts as u64)),
                ("days".into(), Json::U64(stats.days as u64)),
                (
                    "kernel_dedup_hits".into(),
                    Json::U64(stats.kernel_dedup_hits),
                ),
                (
                    "kernel_dedup_lookups".into(),
                    Json::U64(stats.kernel_dedup_lookups),
                ),
                (
                    "kernel_dedup_entries".into(),
                    Json::U64(stats.kernel_dedup_entries as u64),
                ),
                ("kernel_dedup_hit_rate".into(), Json::F64(hit_rate)),
                (
                    "read_buf_hwm".into(),
                    Json::U64(self.read_hwm.load(Ordering::Relaxed)),
                ),
                (
                    "write_buf_hwm".into(),
                    Json::U64(self.write_hwm.load(Ordering::Relaxed)),
                ),
            ],
        )
    }

    /// Whether predict replies for `host` must carry the degraded-quality
    /// tag: its shard recovered from a lock poisoned by a panicking
    /// request. Counts every tagged reply.
    fn predict_degraded(&self, host: u64) -> bool {
        let degraded = self
            .registry
            .shard_poisoned(self.registry.shard_index(host));
        if degraded {
            self.degraded_predictions.fetch_add(1, Ordering::Relaxed);
        }
        degraded
    }

    /// The `health` reply document: logical uptime (requests handled, not
    /// wall clock — byte-stable under test), durability lag, poison and
    /// containment counters, connection accounting. What a load balancer
    /// or the chaos harness polls.
    fn health_json(&self) -> Json {
        let stats = self.registry.stats();
        ok_reply(
            "health",
            vec![
                (
                    "uptime_ticks".into(),
                    Json::U64(self.requests.load(Ordering::Relaxed)),
                ),
                ("shards".into(), Json::U64(stats.shards as u64)),
                ("hosts".into(), Json::U64(stats.hosts as u64)),
                ("durable".into(), Json::Bool(stats.durable)),
                ("wal_records".into(), Json::U64(stats.wal_records)),
                (
                    "wal_synced_records".into(),
                    Json::U64(stats.wal_synced_records),
                ),
                ("snapshot_lag".into(), Json::U64(stats.snapshot_lag)),
                (
                    "snapshots_written".into(),
                    Json::U64(stats.snapshots_written),
                ),
                (
                    "poisoned_shards".into(),
                    Json::U64(stats.poisoned_shards as u64),
                ),
                (
                    "degraded_predictions".into(),
                    Json::U64(self.degraded_predictions.load(Ordering::Relaxed)),
                ),
                (
                    "panics".into(),
                    Json::U64(self.panics.load(Ordering::Relaxed)),
                ),
                (
                    "active_connections".into(),
                    Json::U64(self.active_connections.load(Ordering::Relaxed)),
                ),
                (
                    "shed_connections".into(),
                    Json::U64(self.shed_connections.load(Ordering::Relaxed)),
                ),
                (
                    "oversize_lines".into(),
                    Json::U64(self.oversize_lines.load(Ordering::Relaxed)),
                ),
            ],
        )
    }

    /// Graceful-stop durability hook: fsync the WALs and write fresh
    /// snapshots so a restart replays nothing. Failures are survivable
    /// (the WAL already holds every acknowledged ingest) and tracked by
    /// the registry's snapshot-failure counter.
    fn finalize(&self) {
        let _ = self.registry.sync_all();
        let _ = self.registry.snapshot_all();
    }

    /// Oneshot batch mode: handles request lines from `input` until EOF or
    /// a `shutdown` op, writing one reply line each to `output`. Returns
    /// whether a `shutdown` op was seen. On exit the WALs are fsynced and
    /// fresh snapshots written.
    pub fn serve_lines(&self, input: impl BufRead, output: impl Write) -> std::io::Result<bool> {
        let shutdown = self.serve_stream(input, output)?;
        self.finalize();
        Ok(shutdown)
    }

    /// The request loop of both transports: handles lines from `input`
    /// until EOF or a `shutdown` op, writing each reply to `output` before
    /// reading the next line. Returns whether a `shutdown` op was seen.
    ///
    /// One read buffer and one reply buffer serve the whole stream: both
    /// are cleared (capacity kept) between requests, so a warm request
    /// costs no per-line allocation — and the read buffer never grows past
    /// `max_line_bytes` (oversized lines are drained and answered with a
    /// structured `too_large` reply).
    fn serve_stream(&self, mut input: impl BufRead, mut output: impl Write) -> io::Result<bool> {
        let mut buf: Vec<u8> = Vec::new();
        let mut out = JsonWriter::new();
        let shutdown = loop {
            out.clear();
            let shutdown = match read_bounded_line(&mut input, &mut buf, self.max_line_bytes)? {
                LineRead::Eof => break false,
                LineRead::TooLarge => {
                    self.write_too_large(&mut out);
                    false
                }
                LineRead::Line => match std::str::from_utf8(&buf) {
                    Err(_) => {
                        out.raw(BAD_UTF8_LINE);
                        false
                    }
                    Ok(text) => {
                        let trimmed = text.trim();
                        if trimmed.is_empty() {
                            continue;
                        }
                        self.handle_line_into(trimmed, &mut out)
                    }
                },
            };
            output.write_all(out.as_str().as_bytes())?;
            if shutdown {
                break true;
            }
        };
        output.flush()?;
        Ok(shutdown)
    }

    /// Renders the `too_large` shed reply and counts the rejection.
    // lint: no-alloc
    fn write_too_large(&self, out: &mut JsonWriter) {
        self.oversize_lines.fetch_add(1, Ordering::Relaxed);
        out.raw("{\"ok\":false,\"code\":\"too_large\",\"error\":\"request line exceeds ");
        out.u64(self.max_line_bytes as u64);
        out.raw(" bytes\"}\n");
    }

    /// TCP accept loop: one handler thread per connection, all sharing the
    /// registry. Blocks until some connection sends the `shutdown` op
    /// (acknowledged before the listener stops); shutdown then completes
    /// once every other open connection has drained or disconnected.
    /// Connection-level I/O errors (including read-deadline expiry) drop
    /// that connection only. Connections beyond `max_connections` are shed
    /// with a one-line `busy` reply without spawning a handler. On exit
    /// the WALs are fsynced and fresh snapshots written.
    pub fn serve_tcp(&self, listener: &TcpListener) -> std::io::Result<()> {
        let addr = listener.local_addr()?;
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for conn in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                if self.active_connections.load(Ordering::Acquire) >= self.max_connections as u64 {
                    self.shed_connections.fetch_add(1, Ordering::Relaxed);
                    let mut stream = stream;
                    let _ = stream.write_all(BUSY_LINE.as_bytes());
                    continue; // dropping the stream closes it
                }
                // Only this loop increments, so the check above cannot be
                // raced past the limit; handler threads decrement through
                // the slot guard (released even if the handler errors).
                self.active_connections.fetch_add(1, Ordering::Release);
                let shutdown = &shutdown;
                scope.spawn(move || {
                    let _slot = ConnSlot(&self.active_connections);
                    let _ = self.handle_conn(stream, shutdown, addr);
                });
            }
        });
        self.finalize();
        Ok(())
    }

    /// One TCP connection: [`serve_stream`](Server::serve_stream) under
    /// read and write deadlines, so a peer that stops sending *or* stops
    /// draining replies releases this thread at the timeout. Replies go
    /// straight to the unbuffered socket. Any I/O error, deadline expiry
    /// included, just closes the connection; a `shutdown` op also stops
    /// the accept loop.
    fn handle_conn(
        &self,
        stream: TcpStream,
        shutdown: &AtomicBool,
        addr: SocketAddr,
    ) -> std::io::Result<()> {
        stream.set_read_timeout(self.read_timeout)?;
        stream.set_write_timeout(self.read_timeout)?;
        if self.serve_stream(BufReader::new(stream.try_clone()?), &stream)? {
            shutdown.store(true, Ordering::SeqCst);
            // Unblock the accept loop; the flag makes it exit before
            // serving the wake-up connection.
            let _ = TcpStream::connect(addr);
        }
        Ok(())
    }
}

/// RAII release of one TCP connection slot; `Drop` runs even when the
/// handler exits through an error, so abrupt disconnects never leak the
/// slot.
struct ConnSlot<'a>(&'a AtomicU64);

impl Drop for ConnSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

/// Connects to `addr` with bounded retry and doubling backoff — the
/// client-side tolerance for a server still replaying its WAL (or not yet
/// listening). `sleep` is injected so tests observe the exact schedule
/// deterministically; production passes `std::thread::sleep`.
///
/// # Errors
/// Returns the last connection error, annotated with the attempt count,
/// after `attempts` failures.
pub fn connect_with_retry(
    addr: &str,
    attempts: u32,
    initial_delay: Duration,
    sleep: &mut dyn FnMut(Duration),
) -> Result<TcpStream, String> {
    let mut delay = initial_delay;
    let mut last_err = String::new();
    for attempt in 0..attempts.max(1) {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => last_err = e.to_string(),
        }
        if attempt + 1 < attempts {
            sleep(delay);
            delay = delay.saturating_mul(2);
        }
    }
    Err(format!(
        "connecting {addr}: {last_err} (after {} attempts)",
        attempts.max(1)
    ))
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("registry", &self.registry)
            .field("read_hwm", &self.read_hwm.load(Ordering::Relaxed))
            .field("write_hwm", &self.write_hwm.load(Ordering::Relaxed))
            .field("requests", &self.requests.load(Ordering::Relaxed))
            .field("panics", &self.panics.load(Ordering::Relaxed))
            .field(
                "active_connections",
                &self.active_connections.load(Ordering::Relaxed),
            )
            .finish_non_exhaustive()
    }
}

fn ok_reply(op: &str, rest: Vec<(String, Json)>) -> Json {
    let mut pairs = vec![
        ("ok".into(), Json::Bool(true)),
        ("op".into(), Json::Str(op.into())),
    ];
    pairs.extend(rest);
    Json::Obj(pairs)
}

/// Decodes a digit-per-sample state string (`'1'`–`'5'` for S1–S5), the
/// wire encoding of one day of classified samples
/// ([`fgcs_core::state::decode_digits`]), into the samples. The error names
/// the first character that is not a digit, as the `ingest` op's does.
pub fn decode_states(digits: &str) -> Result<Vec<State>, String> {
    state::decode_digits(digits.as_bytes()).map_err(|at| bad_digit(digits, at))
}

/// The error for `digits`, whose first byte that is not a state digit is
/// at `at`: it names the character there.
fn bad_digit(digits: &str, at: usize) -> String {
    let bad = digits.get(at..).and_then(|rest| rest.chars().next());
    format!(
        "invalid state digit {:?} (expected 1-5)",
        bad.unwrap_or(char::REPLACEMENT_CHARACTER)
    )
}

/// Encodes one day of states as the wire digit string (inverse of
/// [`decode_states`]).
#[must_use]
pub fn encode_states(states: &[State]) -> String {
    let mut digits = Vec::with_capacity(states.len());
    state::encode_digits(states, &mut digits);
    String::from_utf8(digits).expect("state digits are ASCII")
}

/// Parses `"weekday"`/`"weekend"` (the [`DayType`] display strings).
pub fn parse_day_type(s: &str) -> Result<DayType, String> {
    match s {
        "weekday" => Ok(DayType::Weekday),
        "weekend" => Ok(DayType::Weekend),
        other => Err(format!("day_type must be weekday or weekend, got {other}")),
    }
}

/// Parses an operational initial state (`"S1"`/`"S2"`, case-insensitive).
pub fn parse_init(s: &str) -> Result<State, String> {
    match s {
        "S1" | "s1" => Ok(State::S1),
        "S2" | "s2" => Ok(State::S2),
        other => Err(format!("init must be S1 or S2, got {other}")),
    }
}

/// Validating counterpart of [`TimeWindow::from_hours`]: protocol and CLI
/// input must produce an error, never a panic.
pub fn parse_window(start: f64, hours: f64) -> Result<TimeWindow, String> {
    if !start.is_finite() || !hours.is_finite() || start < 0.0 || hours <= 0.0 {
        return Err(format!("invalid window: start {start}h + {hours}h"));
    }
    let start_secs = (start * 3600.0).round() as u32;
    let len_secs = (hours * 3600.0).round() as u32;
    if start_secs >= SECS_PER_DAY {
        return Err(format!("window must start within the day, got {start}h"));
    }
    if len_secs == 0 {
        return Err(format!("window too short: {hours}h rounds to 0s"));
    }
    // In u64: a huge `hours` saturates `len_secs` near u32::MAX.
    if u64::from(start_secs) + u64::from(len_secs) > 2 * u64::from(SECS_PER_DAY) {
        return Err(format!(
            "window may cross at most one midnight: {start}h + {hours}h"
        ));
    }
    Ok(TimeWindow::new(start_secs, len_secs))
}

/// The horizons, in steps, of an evenly spaced `points`-point grid over a
/// `steps`-step window (`i * steps / points` for `i` in `1..=points`). A
/// grid finer than the window's steps would only repeat step indices, so
/// that is refused along with an empty grid — which also bounds what one
/// request can make the server allocate.
pub fn horizon_grid(steps: usize, points: usize) -> Result<impl Iterator<Item = usize>, String> {
    if points == 0 {
        return Err("points must be positive".into());
    }
    if points > steps {
        return Err(format!(
            "points must be at most the window's {steps} steps, got {points}"
        ));
    }
    Ok((1..=points).map(move |i| i * steps / points))
}

/// Writes a TR-vs-horizon sweep into `out` as one JSON document, no
/// newline: the window, day type, initial state, step and horizon, then
/// TR at each point of the evenly spaced horizon grid of `fgcs sweep`
/// ([`horizon_grid`]). A bad grid or initial state writes nothing.
///
/// This is the **one** sweep renderer: the serve `sweep` reply writes it
/// into the connection's pooled reply buffer, and `fgcs sweep --json`
/// prints it through [`sweep_json`], so the two outputs are
/// byte-identical over the same history (asserted in CI).
pub fn write_sweep(
    out: &mut JsonWriter,
    curve: &TrCurve,
    day_type: DayType,
    window: TimeWindow,
    init: State,
    points: usize,
) -> Result<(), String> {
    let steps = curve.horizon_steps();
    let grid = horizon_grid(steps, points)?;
    let tr = curve.curve(init).map_err(|e| e.to_string())?;
    // lint: no-alloc-begin
    out.raw("{\"window\":");
    out.display_string(&window);
    out.raw(",\"day_type\":");
    out.display_string(&day_type);
    out.raw(",\"init\":");
    out.display_string(&init);
    out.raw(",\"step_secs\":");
    out.u64(u64::from(curve.step_secs()));
    out.raw(",\"horizon_steps\":");
    out.u64(steps as u64);
    out.raw(",\"points\":[");
    for (i, m) in grid.enumerate() {
        if i > 0 {
            out.raw_char(',');
        }
        out.raw("{\"steps\":");
        out.u64(m as u64);
        out.raw(",\"horizon_hr\":");
        out.f64(m as f64 * f64::from(curve.step_secs()) / 3600.0);
        out.raw(",\"tr\":");
        out.f64(tr[m]);
        out.raw_char('}');
    }
    out.raw("]}");
    // lint: no-alloc-end
    Ok(())
}

/// The [`write_sweep`] document as a fresh `String`, for callers without a
/// pooled writer (`fgcs sweep --json`, test oracles).
pub fn sweep_json(
    curve: &TrCurve,
    day_type: DayType,
    window: TimeWindow,
    init: State,
    points: usize,
) -> Result<String, String> {
    let mut out = JsonWriter::new();
    write_sweep(&mut out, curve, day_type, window, init, points)?;
    Ok(out.as_str().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgcs_core::log::{DayLog, HistoryStore, StateLog};
    use fgcs_core::model::AvailabilityModel;
    use fgcs_core::predictor::SmpPredictor;

    fn server() -> Server {
        Server::new(&ServeConfig::default())
    }

    fn warm_server(host: u64, days: usize) -> Server {
        let s = server();
        let day = "1".repeat(14_400);
        for d in 0..days {
            let req = format!(
                "{{\"op\":\"ingest\",\"host\":{host},\"day_index\":{d},\"states\":\"{day}\"}}"
            );
            let reply = s.handle_line(&req);
            assert!(reply.line.contains("\"ok\":true"), "{}", reply.line);
        }
        s
    }

    #[test]
    fn ping_stats_shutdown_roundtrip() {
        let s = server();
        assert_eq!(
            s.handle_line(r#"{"op":"ping"}"#).line,
            r#"{"ok":true,"op":"ping"}"#
        );
        let stats = s.handle_line(r#"{"op":"stats"}"#);
        assert!(stats.line.contains("\"hosts\":0"), "{}", stats.line);
        let bye = s.handle_line(r#"{"op":"shutdown"}"#);
        assert!(bye.shutdown);
        assert_eq!(bye.line, r#"{"ok":true,"op":"shutdown"}"#);
    }

    #[test]
    fn malformed_lines_become_error_replies() {
        let s = server();
        for bad in [
            "not json",
            r#"{"op":"nope"}"#,
            r#"{"noop":1}"#,
            r#"{"op":"ingest","host":1,"states":"129"}"#,
            r#"{"op":"predict","host":1,"start":30.0,"hours":1.0}"#,
            r#"{"op":"predict","host":1,"start":9.0,"hours":-1.0}"#,
            r#"{"op":"predict","host":1,"start":9.0,"hours":1.0,"init":"S3"}"#,
        ] {
            let reply = s.handle_line(bad);
            assert!(
                reply.line.starts_with(r#"{"ok":false,"error":"#),
                "{bad} -> {}",
                reply.line
            );
            assert!(!reply.shutdown);
        }
    }

    #[test]
    fn ingest_then_predict_matches_oracle_bitwise() {
        let s = warm_server(5, 4);
        let reply = s.handle_line(r#"{"op":"predict","host":5,"start":9.0,"hours":2.0}"#);
        let json = Json::parse(&reply.line).unwrap();
        assert!(json.get::<bool>("ok").unwrap());
        let got: f64 = json.get("tr").unwrap();

        let model = AvailabilityModel::default();
        let mut history = HistoryStore::new();
        for d in 0..4 {
            history.push_day(DayLog::new(d, StateLog::new(6, vec![State::S1; 14_400])));
        }
        let want = SmpPredictor::new(model)
            .predict(
                &history,
                DayType::Weekday,
                TimeWindow::from_hours(9.0, 2.0),
                State::S1,
            )
            .unwrap();
        assert_eq!(want.to_bits(), got.to_bits());
    }

    #[test]
    fn sweep_reply_is_the_shared_formatter_output() {
        let s = warm_server(2, 5);
        let reply = s.handle_line(r#"{"op":"sweep","host":2,"start":9.0,"hours":2.0,"points":6}"#);
        assert!(
            reply.line.starts_with(r#"{"window":"09:00+2.00h""#),
            "{}",
            reply.line
        );
        let window = TimeWindow::from_hours(9.0, 2.0);
        let curve = s.registry().sweep(2, DayType::Weekday, window).unwrap();
        let want = sweep_json(&curve, DayType::Weekday, window, State::S1, 6).unwrap();
        assert_eq!(reply.line, want);
    }

    #[test]
    fn state_digit_codec_roundtrips() {
        let all = [State::S1, State::S2, State::S3, State::S4, State::S5];
        let digits = encode_states(&all);
        assert_eq!(digits, "12345");
        assert_eq!(decode_states(&digits).unwrap(), all);
        assert!(decode_states("120").is_err());
        assert_eq!(decode_states("").unwrap(), Vec::new());
    }

    #[test]
    fn window_validation_rejects_panicking_inputs() {
        assert!(parse_window(9.0, 2.0).is_ok());
        assert!(parse_window(23.0, 10.0).is_ok()); // one midnight: fine
        assert!(parse_window(24.0, 1.0).is_err());
        assert!(parse_window(-1.0, 1.0).is_err());
        assert!(parse_window(9.0, 0.0).is_err());
        assert!(parse_window(9.0, f64::NAN).is_err());
        assert!(parse_window(23.0, 26.0).is_err());
        assert!(parse_window(0.0, 1e-9).is_err());
        // `len_secs` saturates near u32::MAX; the bound must not wrap.
        assert!(parse_window(9.0, 1e12).is_err());
        assert!(parse_window(23.9, f64::MAX).is_err());
    }

    #[test]
    fn oneshot_batch_processes_until_shutdown() {
        let s = server();
        let day = "1".repeat(14_400);
        let input = format!(
            "{{\"op\":\"ingest\",\"host\":1,\"states\":\"{day}\"}}\n\
             {{\"op\":\"ingest\",\"host\":1,\"states\":\"{day}\"}}\n\
             \n\
             {{\"op\":\"predict\",\"host\":1,\"start\":8.0,\"hours\":1.0}}\n\
             {{\"op\":\"shutdown\"}}\n\
             {{\"op\":\"ping\"}}\n"
        );
        let mut out = Vec::new();
        let saw_shutdown = s.serve_lines(input.as_bytes(), &mut out).unwrap();
        assert!(saw_shutdown);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        // Two ingest acks, one predict, one shutdown ack — the trailing
        // ping is never processed.
        assert_eq!(lines.len(), 4);
        assert!(lines[2].contains("\"tr\":"));
        assert_eq!(lines[3], r#"{"ok":true,"op":"shutdown"}"#);
    }

    #[test]
    fn tcp_serve_answers_and_shuts_down() {
        let s = server();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| s.serve_tcp(&listener));
            let stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut line = String::new();
            for (req, expect) in [
                (r#"{"op":"ping"}"#, r#"{"ok":true,"op":"ping"}"#),
                (r#"{"op":"shutdown"}"#, r#"{"ok":true,"op":"shutdown"}"#),
            ] {
                writeln!(writer, "{req}").unwrap();
                line.clear();
                reader.read_line(&mut line).unwrap();
                assert_eq!(line.trim_end(), expect);
            }
            handle.join().unwrap().unwrap();
        });
    }

    /// Every request in `reqs` sent to a fresh server sequentially, and as
    /// one `batch` to another fresh server: the reply streams must match
    /// byte for byte.
    fn assert_batch_matches_sequential(warm: &dyn Fn() -> Server, reqs: &[String]) {
        let sequential = warm();
        let want: String = reqs
            .iter()
            .map(|r| {
                let mut line = sequential.handle_line(r).line;
                line.push('\n');
                line
            })
            .collect();

        let batched = warm();
        let batch = format!("{{\"op\":\"batch\",\"ops\":[{}]}}", reqs.join(","));
        let mut out = JsonWriter::new();
        assert!(!batched.handle_line_into(&batch, &mut out));
        assert_eq!(out.as_str(), want);
    }

    #[test]
    fn batch_replies_match_sequential_bitwise() {
        let day = "1".repeat(14_400);
        let warm = || {
            let s = server();
            for host in [0u64, 1, 2, 7, 8] {
                for d in 0..3 {
                    let _ = s.handle_line(&format!(
                        "{{\"op\":\"ingest\",\"host\":{host},\"day_index\":{d},\"states\":\"{day}\"}}"
                    ));
                }
            }
            s
        };
        let reqs: Vec<String> = vec![
            r#"{"op":"ping"}"#.into(),
            // A predict run on one coordinate (both inits) — answered from
            // one curve solve in the batch pipeline.
            r#"{"op":"predict","host":0,"start":9.0,"hours":2.0}"#.into(),
            r#"{"op":"predict","host":0,"start":9.0,"hours":2.0,"init":"S2"}"#.into(),
            // Same coordinate on other hosts and shards.
            r#"{"op":"predict","host":1,"start":9.0,"hours":2.0}"#.into(),
            r#"{"op":"predict","host":8,"start":9.0,"hours":2.0}"#.into(),
            // An ingest between predicts on the same host must stay ordered.
            format!("{{\"op\":\"ingest\",\"host\":2,\"day_index\":3,\"states\":\"{day}\"}}"),
            r#"{"op":"predict","host":2,"start":9.0,"hours":2.0}"#.into(),
            // Error replies ride along without poisoning the batch.
            r#"{"op":"predict","host":99,"start":9.0,"hours":2.0}"#.into(),
            r#"{"op":"predict","host":0,"start":9.0,"hours":-1.0}"#.into(),
            r#"{"op":"nope"}"#.into(),
            r#"{"op":"sweep","host":7,"start":9.0,"hours":2.0,"points":4}"#.into(),
        ];
        assert_batch_matches_sequential(&warm, &reqs);
    }

    #[test]
    fn batch_rejects_control_ops_and_empty_sets() {
        let s = server();
        let reply = s.handle_line(r#"{"op":"batch","ops":[]}"#);
        assert_eq!(
            reply.line,
            r#"{"ok":false,"error":"batch needs at least one op"}"#
        );
        let reply = s.handle_line(
            r#"{"op":"batch","ops":[{"op":"stats"},{"op":"shutdown"},{"op":"batch","ops":[{"op":"ping"}]},{"op":"ping"}]}"#,
        );
        assert!(!reply.shutdown);
        let lines: Vec<&str> = reply.line.lines().collect();
        assert_eq!(
            lines,
            vec![
                r#"{"ok":false,"error":"op `stats` not allowed inside batch"}"#,
                r#"{"ok":false,"error":"op `shutdown` not allowed inside batch"}"#,
                r#"{"ok":false,"error":"op `batch` not allowed inside batch"}"#,
                r#"{"ok":true,"op":"ping"}"#,
            ]
        );
        let reply = s.handle_line(r#"{"op":"batch"}"#);
        assert_eq!(
            reply.line,
            r#"{"ok":false,"error":"json error: missing field `ops`"}"#
        );
        let reply = s.handle_line(r#"{"op":"batch","ops":3}"#);
        assert_eq!(
            reply.line,
            r#"{"ok":false,"error":"json error: ops: expected array, found number"}"#
        );
    }

    #[test]
    fn escaped_requests_match_their_literal_twins() {
        // An escaped `"S1"` is decoded by the scanner: the reply must be
        // exactly the bytes of the literal twin.
        let s = warm_server(3, 4);
        let fast =
            s.handle_line(r#"{"op":"predict","host":3,"start":9.0,"hours":2.0,"init":"S1"}"#);
        let slow = s.handle_line(
            "{\"op\":\"predict\",\"host\":3,\"start\":9.0,\"hours\":2.0,\"init\":\"\\u0053\\u0031\"}",
        );
        assert_eq!(fast.line, slow.line);

        // Same equivalence through a batch, whose elements are decoded by
        // the same scanner.
        let fast = s.handle_line(
            r#"{"op":"batch","ops":[{"op":"ping"},{"op":"predict","host":3,"start":9.0,"hours":2.0,"init":"S1"}]}"#,
        );
        let slow = s.handle_line(
            "{\"op\":\"batch\",\"ops\":[{\"op\":\"ping\"},{\"op\":\"predict\",\"host\":3,\"start\":9.0,\"hours\":2.0,\"init\":\"\\u0053\\u0031\"}]}",
        );
        assert_eq!(fast.line, slow.line);
    }

    #[test]
    fn stats_reports_dedup_and_buffer_high_water_marks() {
        let s = warm_server(1, 3);
        for _ in 0..3 {
            let _ = s.handle_line(r#"{"op":"predict","host":1,"start":9.0,"hours":2.0}"#);
        }
        let stats = s.handle_line(r#"{"op":"stats"}"#);
        let json = Json::parse(&stats.line).unwrap();
        let lookups: u64 = json.get("kernel_dedup_lookups").unwrap();
        let hits: u64 = json.get("kernel_dedup_hits").unwrap();
        let rate: f64 = json.get("kernel_dedup_hit_rate").unwrap();
        assert!(lookups >= 1, "{}", stats.line);
        assert!(hits <= lookups);
        assert!((0.0..=1.0).contains(&rate));
        // The ingest lines were the longest requests; the reply high-water
        // mark covers at least one full predict reply.
        let read_hwm: u64 = json.get("read_buf_hwm").unwrap();
        let write_hwm: u64 = json.get("write_buf_hwm").unwrap();
        assert!(read_hwm >= 14_400, "{}", stats.line);
        assert!(write_hwm >= 50, "{}", stats.line);
    }

    #[test]
    fn oversized_lines_get_structured_reply_and_session_continues() {
        let s = Server::open(&ServeConfig {
            max_line_bytes: 64,
            ..ServeConfig::default()
        })
        .unwrap();
        let big = "x".repeat(10_000);
        let input =
            format!("{{\"op\":\"ingest\",\"host\":1,\"states\":\"{big}\"}}\n{{\"op\":\"ping\"}}\n");
        let mut out = Vec::new();
        s.serve_lines(input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert_eq!(
            lines[0],
            "{\"ok\":false,\"code\":\"too_large\",\"error\":\"request line exceeds 64 bytes\"}"
        );
        // The oversized line was drained, not buffered: the session goes on.
        assert_eq!(lines[1], r#"{"ok":true,"op":"ping"}"#);
        let health = s.handle_line(r#"{"op":"health"}"#);
        assert!(
            health.line.contains("\"oversize_lines\":1"),
            "{}",
            health.line
        );
    }

    #[test]
    fn line_length_boundary_is_exact() {
        let s = Server::open(&ServeConfig {
            max_line_bytes: 32,
            ..ServeConfig::default()
        })
        .unwrap();
        // Exactly at the limit: still parsed (and rejected as non-JSON, not
        // as oversized). One byte past: the structured `too_large` reply.
        for (len, too_large) in [(32usize, false), (33, true)] {
            let input = format!("{}\n", "a".repeat(len));
            let mut out = Vec::new();
            s.serve_lines(input.as_bytes(), &mut out).unwrap();
            let text = String::from_utf8(out).unwrap();
            assert_eq!(text.contains("too_large"), too_large, "len {len}: {text}");
        }
    }

    #[test]
    fn non_utf8_lines_get_structured_reply() {
        let s = server();
        let mut input: Vec<u8> = vec![0xFF, 0xFE, b'\n'];
        input.extend_from_slice(b"{\"op\":\"ping\"}\n");
        let mut out = Vec::new();
        s.serve_lines(&input[..], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], BAD_UTF8_LINE.trim_end());
        assert_eq!(lines[1], r#"{"ok":true,"op":"ping"}"#);
    }

    #[test]
    fn health_reports_liveness_and_durability_counters() {
        let s = warm_server(1, 2);
        let reply = s.handle_line(r#"{"op":"health"}"#);
        let json = Json::parse(&reply.line).unwrap();
        assert!(json.get::<bool>("ok").unwrap(), "{}", reply.line);
        // Logical uptime: two ingests plus this health request.
        assert_eq!(json.get::<u64>("uptime_ticks").unwrap(), 3);
        assert!(!json.get::<bool>("durable").unwrap());
        assert_eq!(json.get::<u64>("wal_records").unwrap(), 0);
        assert_eq!(json.get::<u64>("poisoned_shards").unwrap(), 0);
        assert_eq!(json.get::<u64>("degraded_predictions").unwrap(), 0);
        assert_eq!(json.get::<u64>("panics").unwrap(), 0);
        assert_eq!(json.get::<u64>("active_connections").unwrap(), 0);
        assert_eq!(json.get::<u64>("shed_connections").unwrap(), 0);
    }

    #[test]
    fn host_op_reports_stored_days() {
        let s = warm_server(6, 3);
        let reply = s.handle_line(r#"{"op":"host","host":6}"#);
        assert_eq!(reply.line, r#"{"ok":true,"op":"host","host":6,"days":3}"#);
        let reply = s.handle_line(r#"{"op":"host","host":7}"#);
        assert!(reply.line.starts_with(r#"{"ok":false"#), "{}", reply.line);
    }

    #[test]
    fn batch_rejects_health_and_host_ops() {
        // `health` and `host` answer from cross-shard state; allowing them
        // inside a batch would break the batch ≡ sequential byte identity.
        let s = server();
        let reply = s.handle_line(
            r#"{"op":"batch","ops":[{"op":"health"},{"op":"host","host":1},{"op":"ping"}]}"#,
        );
        let lines: Vec<&str> = reply.line.lines().collect();
        assert_eq!(
            lines,
            vec![
                r#"{"ok":false,"error":"op `health` not allowed inside batch"}"#,
                r#"{"ok":false,"error":"op `host` not allowed inside batch"}"#,
                r#"{"ok":true,"op":"ping"}"#,
            ]
        );
    }

    #[test]
    fn poisoned_shard_tags_predictions_stale() {
        let s = warm_server(9, 3);
        let healthy = s.handle_line(r#"{"op":"predict","host":9,"start":9.0,"hours":2.0}"#);
        assert!(!healthy.line.contains("quality"), "{}", healthy.line);

        // Poison the host's shard by panicking while holding its session.
        let shard = s.registry().shard_index(9);
        std::thread::scope(|scope| {
            let _ = scope
                .spawn(|| {
                    let _session = s.registry().session(shard);
                    panic!("deliberate test panic while holding the shard lock");
                })
                .join();
        });

        // Same numeric answer, now tagged as degraded.
        let degraded = s.handle_line(r#"{"op":"predict","host":9,"start":9.0,"hours":2.0}"#);
        assert!(
            degraded.line.ends_with(",\"quality\":\"stale\"}"),
            "{}",
            degraded.line
        );
        assert_eq!(
            degraded.line.replace(",\"quality\":\"stale\"", ""),
            healthy.line
        );
        let health = s.handle_line(r#"{"op":"health"}"#);
        let json = Json::parse(&health.line).unwrap();
        assert_eq!(json.get::<u64>("poisoned_shards").unwrap(), 1);
        assert!(json.get::<u64>("degraded_predictions").unwrap() >= 1);
    }

    #[test]
    fn panicking_requests_are_contained() {
        let s = Server::open(&ServeConfig {
            debug_ops: true,
            ..ServeConfig::default()
        })
        .unwrap();
        let reply = s.handle_line(r#"{"op":"debug_panic"}"#);
        assert_eq!(reply.line, PANIC_LINE.trim_end());
        assert!(!reply.shutdown);
        // The session (and the process) continues.
        assert_eq!(
            s.handle_line(r#"{"op":"ping"}"#).line,
            r#"{"ok":true,"op":"ping"}"#
        );
        let health = s.handle_line(r#"{"op":"health"}"#);
        assert!(health.line.contains("\"panics\":1"), "{}", health.line);

        // Without `debug_ops` the hook is an ordinary unknown op.
        let prod = server();
        let reply = prod.handle_line(r#"{"op":"debug_panic"}"#);
        assert!(
            reply.line.starts_with(r#"{"ok":false"#) && !reply.line.contains("panicked"),
            "{}",
            reply.line
        );
    }

    #[test]
    fn panic_rolls_back_half_written_reply_bytes() {
        let s = Server::open(&ServeConfig {
            debug_ops: true,
            ..ServeConfig::default()
        })
        .unwrap();
        let mut out = JsonWriter::new();
        out.raw("prefix:");
        s.handle_line_into(r#"{"op":"debug_panic"}"#, &mut out);
        assert_eq!(out.as_str(), format!("prefix:{PANIC_LINE}"));
    }

    #[test]
    fn connect_with_retry_backs_off_deterministically() {
        // Bind-then-drop: the freed port refuses connections.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let mut delays = Vec::new();
        let err = connect_with_retry(&addr, 3, Duration::from_millis(7), &mut |d| {
            delays.push(d);
        })
        .unwrap_err();
        // Sleeps only between attempts, doubling: 7ms then 14ms.
        assert_eq!(
            delays,
            vec![Duration::from_millis(7), Duration::from_millis(14)]
        );
        assert!(err.contains("after 3 attempts"), "{err}");

        // First-try success never sleeps.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let mut delays = Vec::new();
        let stream = connect_with_retry(&addr, 3, Duration::from_millis(7), &mut |d| {
            delays.push(d);
        });
        assert!(stream.is_ok());
        assert!(delays.is_empty());
    }

    #[test]
    fn connection_limit_sheds_with_busy_reply() {
        let s = Server::open(&ServeConfig {
            max_connections: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| s.serve_tcp(&listener));
            let first = TcpStream::connect(addr).unwrap();
            let mut first_reader = BufReader::new(first.try_clone().unwrap());
            let mut first_writer = first;
            let mut line = String::new();
            writeln!(first_writer, "{{\"op\":\"ping\"}}").unwrap();
            first_reader.read_line(&mut line).unwrap();
            assert_eq!(line, PING_LINE);

            // The only slot is held: the next connection is shed with a
            // structured `busy` reply, then closed.
            let second = TcpStream::connect(addr).unwrap();
            let mut second_reader = BufReader::new(second);
            line.clear();
            second_reader.read_line(&mut line).unwrap();
            assert_eq!(line, BUSY_LINE);
            line.clear();
            assert_eq!(second_reader.read_line(&mut line).unwrap(), 0);

            writeln!(first_writer, "{{\"op\":\"shutdown\"}}").unwrap();
            line.clear();
            first_reader.read_line(&mut line).unwrap();
            handle.join().unwrap().unwrap();
        });
        let health = s.handle_line(r#"{"op":"health"}"#);
        assert!(
            health.line.contains("\"shed_connections\":1"),
            "{}",
            health.line
        );
    }

    #[test]
    fn idle_connections_hit_the_read_deadline() {
        let s = Server::open(&ServeConfig {
            read_timeout: Some(Duration::from_millis(50)),
            ..ServeConfig::default()
        })
        .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| s.serve_tcp(&listener));
            // Connect and send nothing: the deadline must disconnect us.
            let idle = TcpStream::connect(addr).unwrap();
            let mut idle_reader = BufReader::new(idle);
            let mut line = String::new();
            assert_eq!(idle_reader.read_line(&mut line).unwrap(), 0);
            // The server is still alive for punctual clients.
            let stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            writeln!(writer, "{{\"op\":\"ping\"}}").unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line, PING_LINE);
            writeln!(writer, "{{\"op\":\"shutdown\"}}").unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            handle.join().unwrap().unwrap();
        });
    }

    #[test]
    fn pooled_reply_buffer_reuses_capacity_across_requests() {
        let s = warm_server(4, 3);
        let mut out = JsonWriter::new();
        // Warm the buffer, then confirm repeats reuse the same capacity.
        s.handle_line_into(
            r#"{"op":"predict","host":4,"start":9.0,"hours":2.0}"#,
            &mut out,
        );
        let first = out.as_str().to_string();
        let cap = out.capacity();
        for _ in 0..10 {
            out.clear();
            s.handle_line_into(
                r#"{"op":"predict","host":4,"start":9.0,"hours":2.0}"#,
                &mut out,
            );
            assert_eq!(out.as_str(), first);
            assert_eq!(out.capacity(), cap);
        }
    }
}
