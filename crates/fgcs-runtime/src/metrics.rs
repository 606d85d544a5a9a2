//! Std-only metrics & profiling: counters, gauges, log2-bucketed
//! histograms, scoped span timers, and a process-wide registry that
//! serializes to byte-stable JSON.
//!
//! Two gates keep the subsystem out of the hot paths it observes:
//!
//! 1. **Compile-time** — the `metrics` cargo feature (on by default). With
//!    the feature off, the instrumentation macros ([`counter_add!`],
//!    [`gauge_set!`], [`histogram_record!`], [`time_span!`]) expand to
//!    no-ops; instrumented crates compile to exactly the code they would
//!    contain without any instrumentation.
//! 2. **Run-time** — a process-wide enable flag, **off by default**. While
//!    off, every macro site costs one relaxed atomic load and a predicted
//!    branch. [`set_enabled`] turns collection on (the CLI's
//!    `--metrics-out` flag and the experiment binaries do this at startup).
//!
//! Each macro call site caches its instrument in a static, so every macro
//! takes its name as a string literal: one call site, one name.
//!
//! Determinism: [`Snapshot::to_json`] emits instruments sorted by name
//! (registration order is irrelevant), integers exactly, and floats in
//! Rust's shortest round-trip form — the same process state always
//! produces the same bytes. Wall-clock timings are inherently
//! non-reproducible, so [`Snapshot::deterministic_json`] reduces every
//! timing histogram to its (deterministic) call count; two identical
//! seeded runs produce byte-identical deterministic exports.
//!
//! [`counter_add!`]: crate::counter_add
//! [`gauge_set!`]: crate::gauge_set
//! [`histogram_record!`]: crate::histogram_record
//! [`time_span!`]: crate::time_span

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;

/// Whether the instrumentation macros were compiled in.
pub const COMPILED: bool = cfg!(feature = "metrics");

/// Process-wide run-time gate (off by default). Checked by the macros, not
/// by the instrument types, so unit tests can drive instruments directly.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns metric collection on or off for the whole process.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Release);
}

/// Whether metric collection is currently active (compiled in *and*
/// enabled at run time).
#[inline]
#[must_use]
pub fn enabled() -> bool {
    COMPILED && ENABLED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Shard count for counters: a small power of two. More shards than this
/// buy nothing for the workspace's fork/join parallelism (threads ≈ cores).
const SHARDS: usize = 8;

/// One cache line per shard so concurrent increments don't false-share.
#[repr(align(64))]
struct Shard(AtomicU64);

/// A monotone event counter, sharded across cache lines so that workers
/// incrementing concurrently (e.g. from `par_map_indexed`) don't contend.
/// The total is exact: every `add` lands in exactly one shard and `get`
/// sums all shards.
pub struct Counter {
    shards: [Shard; SHARDS],
}

/// The calling thread's fixed shard slot, assigned round-robin on first
/// use. A thread always hits the same cache line.
fn shard_index() -> usize {
    thread_local! {
        static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    SLOT.with(|slot| {
        let mut v = slot.get();
        if v == usize::MAX {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            v = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
            slot.set(v);
        }
        v
    })
}

impl Counter {
    fn new() -> Counter {
        Counter {
            shards: std::array::from_fn(|_| Shard(AtomicU64::new(0))),
        }
    }

    /// Adds `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The exact total across all shards.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// Gauges
// ---------------------------------------------------------------------------

/// A last-value-wins `f64` gauge (stored as bits in one atomic). Under
/// concurrent writers the surviving value is whichever `set` landed last —
/// gauges record point-in-time readings, not aggregates.
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    fn new() -> Gauge {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Records the current reading.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The last recorded reading.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.set(0.0);
    }
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// Bucket count: bucket 0 holds the value 0; bucket `b ≥ 1` holds values
/// `v` with `2^(b-1) ≤ v < 2^b` (i.e. `v` needs exactly `b` bits). A `u64`
/// needs at most 64 bits, so 65 buckets cover the whole domain.
const BUCKETS: usize = 65;

/// The bucket a value lands in: its bit length. Exact powers of two open a
/// new bucket: `bucket_of(2^k) = k + 1`, `bucket_of(2^k − 1) = k`.
#[inline]
#[must_use]
pub fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The inclusive value range `[lo, hi]` covered by a bucket index.
#[must_use]
pub fn bucket_range(b: usize) -> (u64, u64) {
    match b {
        0 => (0, 0),
        1 => (1, 1),
        b if b >= 64 => (1u64 << 63, u64::MAX),
        b => (1u64 << (b - 1), (1u64 << b) - 1),
    }
}

/// A log2-bucketed histogram of `u64` observations, with exact count, sum
/// and min/max. Used for both logical quantities (window sizes, solver
/// steps) and — via [`SpanTimer`] — wall-clock latencies in nanoseconds.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations (wrapping on overflow).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the histogram state.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        HistogramSnapshot {
            count,
            sum: self.sum(),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((i as u64, n))
                })
                .collect(),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// `(bucket index, count)` for every non-empty bucket, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".into(), Json::U64(self.count)),
            ("sum".into(), Json::U64(self.sum)),
            ("min".into(), Json::U64(self.min)),
            ("max".into(), Json::U64(self.max)),
            (
                "buckets".into(),
                Json::Arr(
                    self.buckets
                        .iter()
                        .map(|&(b, n)| Json::Arr(vec![Json::U64(b), Json::U64(n)]))
                        .collect(),
                ),
            ),
        ])
    }
}

// ---------------------------------------------------------------------------
// Span timers
// ---------------------------------------------------------------------------

/// A scoped wall-clock timer: created by [`time_span!`], records the
/// elapsed nanoseconds into a timing histogram when dropped. Bind it to a
/// named variable (`let _span = time_span!(..)`) — `let _ = ..` drops it
/// immediately and times nothing.
///
/// [`time_span!`]: crate::time_span
#[must_use = "bind the span guard to a variable; dropping it ends the span"]
pub struct SpanTimer {
    inner: Option<(Arc<Histogram>, Instant)>,
}

impl SpanTimer {
    /// Starts a span against a per-call-site cached timing histogram.
    /// Returns an inert guard when collection is disabled. The slot binds
    /// the first `name` it sees and ignores every later one, so each slot
    /// must serve one name only ([`time_span!`] gives every call site its
    /// own slot and takes the name as a literal).
    ///
    /// [`time_span!`]: crate::time_span
    pub fn start_cached(slot: &'static OnceLock<Arc<Histogram>>, name: &str) -> SpanTimer {
        if !enabled() {
            return SpanTimer::disabled();
        }
        let hist = slot.get_or_init(|| registry().timing(name)).clone();
        SpanTimer {
            inner: Some((hist, Instant::now())),
        }
    }

    /// An inert guard that records nothing.
    pub fn disabled() -> SpanTimer {
        SpanTimer { inner: None }
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some((hist, start)) = self.inner.take() {
            let ns = start.elapsed().as_nanos();
            hist.record(u64::try_from(ns).unwrap_or(u64::MAX));
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A named collection of instruments. The process-wide instance is
/// [`registry()`]; tests build private instances to avoid cross-talk.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    timings: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

fn get_or_insert<T>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str, new: fn() -> T) -> Arc<T> {
    let mut map = map.lock().expect("metrics registry poisoned");
    if let Some(v) = map.get(name) {
        return Arc::clone(v);
    }
    let v = Arc::new(new());
    map.insert(name.to_string(), Arc::clone(&v));
    v
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter registered under `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name, Counter::new)
    }

    /// The gauge registered under `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name, Gauge::new)
    }

    /// The value histogram registered under `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name, Histogram::new)
    }

    /// The timing histogram (nanoseconds) registered under `name`.
    pub fn timing(&self, name: &str) -> Arc<Histogram> {
        get_or_insert(&self.timings, name, Histogram::new)
    }

    /// Zeroes every registered instrument (registrations are kept).
    pub fn reset(&self) {
        for c in self.counters.lock().expect("poisoned").values() {
            c.reset();
        }
        for g in self.gauges.lock().expect("poisoned").values() {
            g.reset();
        }
        for h in self.histograms.lock().expect("poisoned").values() {
            h.reset();
        }
        for t in self.timings.lock().expect("poisoned").values() {
            t.reset();
        }
    }

    /// A point-in-time snapshot of every instrument, sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .lock()
                .expect("poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            timings: self
                .timings
                .lock()
                .expect("poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// The process-wide registry the instrumentation macros record into.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// A point-in-time export of a [`Registry`]. Entries are sorted by
/// instrument name, so serialization is independent of registration order.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// `(name, total)` per counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, last value)` per gauge.
    pub gauges: Vec<(String, f64)>,
    /// `(name, state)` per value histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// `(name, state)` per timing histogram (nanoseconds).
    pub timings: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// The full export, including wall-clock timings. Byte-stable for a
    /// given snapshot, but timings differ run to run.
    #[must_use]
    pub fn to_json(&self) -> Json {
        self.json_impl(true)
    }

    /// The reproducible export: timing histograms are reduced to their
    /// call counts (which are deterministic), all other instruments are
    /// exported in full. Two identical seeded runs produce byte-identical
    /// deterministic exports.
    #[must_use]
    pub fn deterministic_json(&self) -> Json {
        self.json_impl(false)
    }

    fn json_impl(&self, include_timing_values: bool) -> Json {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Json::U64(*v)))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), Json::F64(*v)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.to_json()))
            .collect();
        let timings = self
            .timings
            .iter()
            .map(|(k, h)| {
                let body = if include_timing_values {
                    h.to_json()
                } else {
                    Json::Obj(vec![("count".into(), Json::U64(h.count))])
                };
                (k.clone(), body)
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str("fgcs-metrics/v1".into())),
            ("counters".into(), Json::Obj(counters)),
            ("gauges".into(), Json::Obj(gauges)),
            ("histograms".into(), Json::Obj(histograms)),
            ("timings_ns".into(), Json::Obj(timings)),
        ])
    }
}

// ---------------------------------------------------------------------------
// Instrumentation macros
// ---------------------------------------------------------------------------

/// Adds `n` to the named process-wide counter. No-op unless the `metrics`
/// feature is on *and* collection is enabled. The registry lookup happens
/// once per call site (cached in a static), so the name must be a string
/// literal; a computed name does not compile:
///
/// ```compile_fail
/// let name = "runtime.fault.nan_values";
/// fgcs_runtime::counter_add!(name, 1);
/// ```
#[cfg(feature = "metrics")]
#[macro_export]
macro_rules! counter_add {
    ($name:literal, $n:expr) => {{
        if $crate::metrics::enabled() {
            static __SLOT: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Counter>> =
                ::std::sync::OnceLock::new();
            __SLOT
                .get_or_init(|| $crate::metrics::registry().counter($name))
                .add($n);
        }
    }};
}

/// No-op expansion (`metrics` feature disabled): arguments are evaluated
/// for side-effect parity and discarded.
#[cfg(not(feature = "metrics"))]
#[macro_export]
macro_rules! counter_add {
    ($name:literal, $n:expr) => {{
        let _ = ($name, $n);
    }};
}

/// Sets the named process-wide gauge to `v` (an `f64`). No-op unless
/// compiled in and enabled.
#[cfg(feature = "metrics")]
#[macro_export]
macro_rules! gauge_set {
    ($name:literal, $v:expr) => {{
        if $crate::metrics::enabled() {
            static __SLOT: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Gauge>> =
                ::std::sync::OnceLock::new();
            __SLOT
                .get_or_init(|| $crate::metrics::registry().gauge($name))
                .set($v);
        }
    }};
}

/// No-op expansion (`metrics` feature disabled).
#[cfg(not(feature = "metrics"))]
#[macro_export]
macro_rules! gauge_set {
    ($name:literal, $v:expr) => {{
        let _ = ($name, $v);
    }};
}

/// Records a `u64` observation into the named process-wide histogram.
/// No-op unless compiled in and enabled.
#[cfg(feature = "metrics")]
#[macro_export]
macro_rules! histogram_record {
    ($name:literal, $v:expr) => {{
        if $crate::metrics::enabled() {
            static __SLOT: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Histogram>> =
                ::std::sync::OnceLock::new();
            __SLOT
                .get_or_init(|| $crate::metrics::registry().histogram($name))
                .record($v);
        }
    }};
}

/// No-op expansion (`metrics` feature disabled).
#[cfg(not(feature = "metrics"))]
#[macro_export]
macro_rules! histogram_record {
    ($name:literal, $v:expr) => {{
        let _ = ($name, $v);
    }};
}

/// Starts a scoped span timer recording into the named timing histogram
/// (nanoseconds) when the returned guard drops:
///
/// ```ignore
/// let _span = fgcs_runtime::time_span!("core.tr_query_ns");
/// ```
///
/// Returns an inert guard when collection is disabled.
#[cfg(feature = "metrics")]
#[macro_export]
macro_rules! time_span {
    ($name:literal) => {{
        static __SLOT: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Histogram>> =
            ::std::sync::OnceLock::new();
        $crate::metrics::SpanTimer::start_cached(&__SLOT, $name)
    }};
}

/// No-op expansion (`metrics` feature disabled): returns an inert guard so
/// call sites type-check identically.
#[cfg(not(feature = "metrics"))]
#[macro_export]
macro_rules! time_span {
    ($name:literal) => {{
        let _ = $name;
        $crate::metrics::SpanTimer::disabled()
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads_exactly() {
        let reg = Registry::new();
        let c = reg.counter("t.concurrent");
        let per_thread = 10_000u64;
        let threads = 8;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for _ in 0..per_thread {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), per_thread * threads as u64);
    }

    #[test]
    fn counter_is_shared_by_name() {
        let reg = Registry::new();
        reg.counter("t.shared").add(3);
        reg.counter("t.shared").add(4);
        assert_eq!(reg.counter("t.shared").get(), 7);
        assert_eq!(reg.counter("t.other").get(), 0);
    }

    #[test]
    fn gauge_keeps_last_value() {
        let reg = Registry::new();
        let g = reg.gauge("t.gauge");
        g.set(1.5);
        g.set(-0.25);
        assert_eq!(g.get(), -0.25);
    }

    #[test]
    fn bucket_boundaries_at_powers_of_two() {
        // Bucket b holds values needing exactly b bits: an exact power of
        // two opens a new bucket, 2^k - 1 closes the previous one.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        for k in 1..63 {
            let v = 1u64 << k;
            assert_eq!(bucket_of(v), k + 1, "2^{k}");
            assert_eq!(bucket_of(v - 1), k, "2^{k} - 1");
            assert_eq!(bucket_of(v + 1), k + 1, "2^{k} + 1");
        }
        assert_eq!(bucket_of(u64::MAX), 64);
        // bucket_range is the inverse description.
        assert_eq!(bucket_range(0), (0, 0));
        assert_eq!(bucket_range(1), (1, 1));
        assert_eq!(bucket_range(3), (4, 7));
        assert_eq!(bucket_range(64), (1u64 << 63, u64::MAX));
        for b in 0..BUCKETS {
            let (lo, hi) = bucket_range(b);
            assert_eq!(bucket_of(lo), b, "lo of bucket {b}");
            assert_eq!(bucket_of(hi), b, "hi of bucket {b}");
        }
    }

    #[test]
    fn histogram_tracks_count_sum_min_max() {
        let reg = Registry::new();
        let h = reg.histogram("t.h");
        for v in [0u64, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1010);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        // 0 -> b0; 1 -> b1; 2,3 -> b2; 4 -> b3; 1000 -> b10.
        assert_eq!(s.buckets, vec![(0, 1), (1, 1), (2, 2), (3, 1), (10, 1)]);
    }

    #[test]
    fn empty_histogram_snapshot_is_clean() {
        let reg = Registry::new();
        let s = reg.histogram("t.empty").snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn snapshot_json_is_sorted_and_stable() {
        let reg = Registry::new();
        // Register intentionally out of order.
        reg.counter("t.z").add(1);
        reg.counter("t.a").add(2);
        reg.gauge("t.g").set(0.5);
        reg.histogram("t.h").record(5);
        let a = reg.snapshot().to_json().to_string();
        let b = reg.snapshot().to_json().to_string();
        assert_eq!(a, b);
        let az = a.find("\"t.z\"").unwrap();
        let aa = a.find("\"t.a\"").unwrap();
        assert!(aa < az, "sorted by name: {a}");
        // The export parses back.
        assert!(Json::parse(&a).is_ok());
    }

    #[test]
    fn deterministic_json_drops_timing_values() {
        let reg = Registry::new();
        reg.timing("t.span").record(12345);
        reg.counter("t.c").add(1);
        let full = reg.snapshot().to_json().to_string();
        let det = reg.snapshot().deterministic_json().to_string();
        assert!(full.contains("12345"), "{full}");
        assert!(!det.contains("12345"), "{det}");
        assert!(det.contains(r#""t.span":{"count":1}"#), "{det}");
        assert!(det.contains(r#""t.c":1"#), "{det}");
    }

    #[test]
    fn reset_zeroes_but_keeps_registrations() {
        let reg = Registry::new();
        reg.counter("t.c").add(9);
        reg.gauge("t.g").set(2.0);
        reg.histogram("t.h").record(7);
        reg.timing("t.t").record(100);
        reg.reset();
        let s = reg.snapshot();
        assert_eq!(s.counters, vec![("t.c".to_string(), 0)]);
        assert_eq!(s.gauges, vec![("t.g".to_string(), 0.0)]);
        assert_eq!(s.histograms[0].1.count, 0);
        assert_eq!(s.timings[0].1.count, 0);
    }

    #[test]
    fn span_timer_records_on_drop() {
        let reg = Registry::new();
        let h = reg.timing("t.drop");
        {
            let _span = SpanTimer {
                inner: Some((Arc::clone(&h), Instant::now())),
            };
        }
        assert_eq!(h.count(), 1);
        // Inert guards record nothing.
        drop(SpanTimer::disabled());
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn global_gate_defaults_off_and_toggles() {
        // Note: the gate is process-global; this test only checks the
        // toggle round-trips (other tests here never enable it).
        assert!(!enabled());
        set_enabled(true);
        assert_eq!(enabled(), COMPILED);
        set_enabled(false);
        assert!(!enabled());
    }
}
