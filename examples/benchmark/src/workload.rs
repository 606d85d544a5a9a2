//! The four workloads: their server configuration, warm state, request
//! streams and wire encoding.
//!
//! Every request is a small `Copy` descriptor ([`Req`]) that carries what
//! the oracle needs to check its reply; the JSON line is rendered from it
//! at send time ([`write_line`]), so a stream costs a few bytes per request
//! whatever the ingest line length.

use std::io::Write;

use fgcs::core::state::State;
use fgcs::core::window::{DayType, TimeWindow};

use crate::synth::{self, SplitMix64};

/// Warm history per host, in days (two weeks: ten weekdays, four weekend
/// days).
pub const WARM_DAYS: u32 = 14;

/// The scheduler's polling grid: `(start hour, length hours)` in tenths.
pub const GRID: [(u16, u16); 4] = [(80, 10), (90, 20), (140, 10), (200, 20)];

/// Lengths (tenths of an hour) of the ad-hoc job windows of `cold_window`.
/// A cached kernel holds ~110 bytes per step of its window, and the
/// registry keeps up to 32 768 of them, so longer windows would make a run
/// hold gigabytes.
const COLD_LENGTHS: [u16; 3] = [5, 10, 20];

/// Predict/sweep coordinates: window in tenths of an hour, day type, init.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Query {
    pub start: u16,
    pub len: u16,
    pub weekend: bool,
    pub init_s2: bool,
}

impl Query {
    pub fn grid(i: usize, init_s2: bool) -> Query {
        Query {
            start: GRID[i].0,
            len: GRID[i].1,
            weekend: false,
            init_s2,
        }
    }

    pub fn day_type(&self) -> DayType {
        if self.weekend {
            DayType::Weekend
        } else {
            DayType::Weekday
        }
    }

    pub fn init(&self) -> State {
        if self.init_s2 {
            State::S2
        } else {
            State::S1
        }
    }

    /// The window exactly as the server derives it from the wire fields.
    pub fn window(&self) -> TimeWindow {
        fgcs::serve::parse_window(f64::from(self.start) / 10.0, f64::from(self.len) / 10.0)
            .expect("benchmark windows are valid")
    }
}

/// One request. Predicts and sweeps run against the warm history; `day` on
/// ingest and batch is the host's newest day once the request has run, so
/// the oracle knows the exact history each reply was computed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    Predict {
        host: u32,
        q: Query,
    },
    Sweep {
        host: u32,
        q: Query,
    },
    Ingest {
        host: u32,
        day: u32,
    },
    /// Eight predicts: the four grid coordinates × init S1/S2, weekday.
    Batch {
        host: u32,
        day: u32,
    },
}

/// Sweep points per `sweep` request.
pub const SWEEP_POINTS: usize = 12;

impl Req {
    /// Reply lines the server writes for this request.
    pub fn reply_lines(&self) -> usize {
        match self {
            Req::Batch { .. } => 8,
            _ => 1,
        }
    }

    /// Predicted TR values the request asks for.
    pub fn predicts(&self) -> u64 {
        match self {
            Req::Predict { .. } | Req::Sweep { .. } => 1,
            Req::Batch { .. } => 8,
            Req::Ingest { .. } => 0,
        }
    }

    pub fn host(&self) -> u32 {
        match *self {
            Req::Predict { host, .. }
            | Req::Sweep { host, .. }
            | Req::Ingest { host, .. }
            | Req::Batch { host, .. } => host,
        }
    }

    /// Days in the host's history when the reply is computed.
    pub fn history_days(&self) -> u32 {
        match *self {
            Req::Predict { .. } | Req::Sweep { .. } => WARM_DAYS,
            Req::Ingest { day, .. } | Req::Batch { day, .. } => day + 1,
        }
    }
}

fn write_hours(out: &mut Vec<u8>, tenths: u16) {
    let _ = write!(out, "{}.{}", tenths / 10, tenths % 10);
}

fn write_query(out: &mut Vec<u8>, op: &str, host: u32, q: &Query) {
    let _ = write!(out, "{{\"op\":\"{op}\",\"host\":{host},\"start\":");
    write_hours(out, q.start);
    out.extend_from_slice(b",\"hours\":");
    write_hours(out, q.len);
    let _ = write!(
        out,
        ",\"day_type\":\"{}\",\"init\":\"{}\"",
        q.day_type(),
        q.init()
    );
}

/// Appends the request's JSON line (newline included).
pub fn write_line(seed: u64, req: &Req, out: &mut Vec<u8>) {
    match *req {
        Req::Predict { host, q } => {
            write_query(out, "predict", host, &q);
            out.extend_from_slice(b"}\n");
        }
        Req::Sweep { host, q } => {
            write_query(out, "sweep", host, &q);
            let _ = writeln!(out, ",\"points\":{SWEEP_POINTS}}}");
        }
        Req::Ingest { host, day } => {
            let _ = write!(
                out,
                "{{\"op\":\"ingest\",\"host\":{host},\"day_index\":{day},\"states\":\""
            );
            synth::write_day(seed, u64::from(host), u64::from(day), out);
            out.extend_from_slice(b"\"}\n");
        }
        Req::Batch { host, .. } => {
            out.extend_from_slice(b"{\"op\":\"batch\",\"ops\":[");
            for i in 0..8 {
                if i > 0 {
                    out.push(b',');
                }
                write_query(out, "predict", host, &Query::grid(i / 2, i % 2 == 1));
                out.push(b'}');
            }
            out.extend_from_slice(b"]}\n");
        }
    }
}

/// Which request mix a workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    QueryHot,
    IngestDurable,
    DayRollover,
    ColdWindow,
}

/// One workload: its traffic, rates and server configuration.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Open-loop send rate, requests per second.
    pub rate: f64,
    /// In-flight requests per connection in the saturation phase.
    pub window: usize,
    /// Saturation-phase request cap per round (both connections together),
    /// bounding the cached kernels a round piles up.
    pub max_ops: Option<u64>,
    /// Rounds per run, each on a fresh server, so `setup_s` is a median
    /// over this many setups: fewer where setup takes seconds, since set-up
    /// time is not measuring time.
    pub rounds: usize,
    /// Requests replayed per depth by the traced run (bounded by the memory
    /// of three warm instances alive at once).
    pub trace_requests: usize,
    /// WAL + snapshots on a temporary data dir, restart in setup.
    pub durable: bool,
    /// Whether setup asks each host's grid coordinates once (QhCache,
    /// estimators and solve memo warm).
    pub warm_grid: bool,
}

/// Snapshot cadence of the durable workloads, in WAL records per shard:
/// `ingest_durable` completes about two snapshot cycles per shard in every
/// round of a 15 s run.
pub const SNAPSHOT_EVERY: u64 = 256;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "query_hot",
        kind: Kind::QueryHot,
        rate: 10_000.0,
        window: 32,
        max_ops: None,
        rounds: 6,
        trace_requests: 5_000,
        durable: false,
        warm_grid: true,
    },
    Workload {
        name: "ingest_durable",
        kind: Kind::IngestDurable,
        rate: 500.0,
        window: 4,
        max_ops: None,
        rounds: 4,
        trace_requests: 3_000,
        durable: true,
        warm_grid: true,
    },
    Workload {
        name: "day_rollover",
        kind: Kind::DayRollover,
        rate: 500.0,
        window: 8,
        max_ops: Some(1_000),
        rounds: 4,
        trace_requests: 200,
        durable: true,
        warm_grid: true,
    },
    Workload {
        name: "cold_window",
        kind: Kind::ColdWindow,
        rate: 1_000.0,
        window: 8,
        max_ops: Some(3_000),
        rounds: 8,
        trace_requests: 1_000,
        durable: false,
        warm_grid: false,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Generates a workload's requests. Ingest-bearing streams walk their
/// hosts in a seeded order, each host's days strictly increasing.
#[derive(Debug, Clone)]
pub struct Stream {
    kind: Kind,
    rng: SplitMix64,
    hosts: Vec<u32>,
    cursor: usize,
    /// Next day index per host id (ingest workloads).
    next_day: Vec<u32>,
    /// `day_rollover`: the batch still owed for the last ingest.
    pending_batch: Option<Req>,
}

impl Stream {
    /// The stream of phase `label` over the given hosts. `next_day` holds
    /// the next unused day index per host id (all `WARM_DAYS` at first).
    pub fn new(kind: Kind, seed: u64, label: u64, hosts: Vec<u32>, next_day: Vec<u32>) -> Stream {
        let mut rng = SplitMix64::derive(seed, 1000 + label, 0);
        let mut hosts = hosts;
        rng.shuffle(&mut hosts);
        Stream {
            kind,
            rng,
            hosts,
            cursor: 0,
            next_day,
            pending_batch: None,
        }
    }

    /// Next-day table after the requests generated so far.
    pub fn next_day(&self) -> &[u32] {
        &self.next_day
    }

    fn next_host(&mut self) -> u32 {
        let h = self.hosts[self.cursor];
        self.cursor = (self.cursor + 1) % self.hosts.len();
        h
    }

    pub fn next_req(&mut self) -> Req {
        if let Some(batch) = self.pending_batch.take() {
            return batch;
        }
        match self.kind {
            Kind::QueryHot => {
                let host = self.hosts[self.rng.below(self.hosts.len() as u64) as usize];
                let i = self.rng.below(GRID.len() as u64) as usize;
                let s2 = self.rng.below(2) == 1;
                Req::Predict {
                    host,
                    q: Query::grid(i, s2),
                }
            }
            Kind::ColdWindow => {
                let host = self.hosts[self.rng.below(self.hosts.len() as u64) as usize];
                let q = Query {
                    start: self.rng.below(240) as u16,
                    len: COLD_LENGTHS[self.rng.below(COLD_LENGTHS.len() as u64) as usize],
                    weekend: self.rng.below(4) == 0,
                    init_s2: self.rng.below(2) == 1,
                };
                if self.rng.below(5) == 0 {
                    Req::Sweep { host, q }
                } else {
                    Req::Predict { host, q }
                }
            }
            Kind::IngestDurable | Kind::DayRollover => {
                let host = self.next_host();
                let day = self.next_day[host as usize];
                self.next_day[host as usize] += 1;
                if self.kind == Kind::DayRollover {
                    self.pending_batch = Some(Req::Batch { host, day });
                }
                Req::Ingest { host, day }
            }
        }
    }

    pub fn take(&mut self, n: usize) -> Vec<Req> {
        (0..n).map(|_| self.next_req()).collect()
    }
}

/// Due times (ns from the phase start) of open-loop requests `reqs`
/// arriving as a Poisson process at `rate` requests per second:
/// independent users. A batch is due with the ingest before it: in
/// `day_rollover` a host closes a day and the scheduler polls it at once,
/// so such units arrive at half the request rate and their latency is the
/// batch's.
pub fn poisson_dues(seed: u64, label: u64, reqs: &[Req], rate: f64) -> Vec<u64> {
    let starts_unit = |r: &Req| !matches!(r, Req::Batch { .. });
    let units = reqs.iter().filter(|r| starts_unit(r)).count();
    let unit_rate = rate * units as f64 / reqs.len().max(1) as f64;
    let mut rng = SplitMix64::derive(seed, 2000 + label, 0);
    let mut t = 0.0f64;
    let mut due = 0;
    reqs.iter()
        .map(|req| {
            if starts_unit(req) {
                due = t as u64;
                t += -(1.0 - rng.unit()).ln() / unit_rate * 1e9;
            }
            due
        })
        .collect()
}

/// Every host's warm days, day-major (see [`crate::server::WarmLines`]).
pub fn warm_ingest(hosts: u32) -> impl Iterator<Item = Req> {
    (0..WARM_DAYS).flat_map(move |day| (0..hosts).map(move |host| Req::Ingest { host, day }))
}

/// Each host's grid windows with both inits.
pub fn warm_grid(hosts: u32) -> impl Iterator<Item = Req> {
    (0..hosts).flat_map(|host| {
        (0..8).map(move |i| Req::Predict {
            host,
            q: Query::grid(i / 2, i % 2 == 1),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_lines_carry_eight_grid_predicts() {
        let mut line = Vec::new();
        write_line(1, &Req::Batch { host: 3, day: 20 }, &mut line);
        let text = String::from_utf8(line).expect("utf8");
        assert!(text.ends_with("]}\n"));
        assert_eq!(text.matches("\"op\":\"predict\"").count(), 8);
        assert!(
            text.contains("\"start\":20.0,\"hours\":2.0,\"day_type\":\"weekday\",\"init\":\"S2\"")
        );
    }

    #[test]
    fn rollover_streams_pair_each_ingest_with_its_batch() {
        let mut s = Stream::new(
            Kind::DayRollover,
            7,
            0,
            (0..4).collect(),
            vec![WARM_DAYS; 4],
        );
        let reqs = s.take(16);
        for pair in reqs.chunks(2) {
            match (pair[0], pair[1]) {
                (Req::Ingest { host, day }, Req::Batch { host: h2, day: d2 }) => {
                    assert_eq!((host, day), (h2, d2));
                }
                other => panic!("unexpected pair {other:?}"),
            }
        }
        // Four hosts, eight ingests: every host advanced two days.
        assert_eq!(s.next_day(), &[WARM_DAYS + 2; 4]);
    }
}
