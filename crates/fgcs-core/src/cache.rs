//! Memoization of estimated SMP parameters.
//!
//! Q/H estimation re-reads the stored history runs on every TR query
//! (`qh_estimation/2h` ≈ 2.5 µs at machine factor 1.0 in
//! `BENCH_baseline.json`, where a cached query, `predictor/cached_qh`,
//! costs 44 ns) even though a scheduler polling the same machines re-asks
//! for the same (host, window, day-class, history) over and over. [`QhCache`] is a
//! capacity-bounded LRU over [`fgcs_runtime::cache::LruCache`] keyed by
//! exactly those coordinates. The history *length* is part of the key, so
//! appending a day implicitly invalidates every entry for that host: a
//! lookup only ever matches the current length, and entries keyed by an
//! older one are never read again and age out of the LRU. A history edited
//! or replaced in place (e.g. through `HistoryStore::days_mut`) keeps its
//! length, so its owner must call [`QhCache::clear`], as
//! `StateManager::preload_history` does.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

use fgcs_runtime::cache::LruCache;

use crate::error::CoreError;
use crate::log::HistoryStore;
use crate::predictor::SmpPredictor;
use crate::smp::SmpParams;
use crate::window::{DayType, TimeWindow};

/// Lock stripes in [`KernelDedup`] (a power of two; the content hash picks
/// the stripe, so shards interning concurrently rarely contend).
const DEDUP_STRIPES: usize = 16;

/// One interned kernel: a weak handle to the canonical `Arc` plus the
/// per-kernel solve memo.
///
/// The `Weak` never keeps the params alive (interning must not leak
/// kernels past their last consumer), but it *does* keep the `ArcInner`
/// allocation alive — so comparing `weak.as_ptr()` against a live `Arc`'s
/// pointer identifies the same object without an upgrade, and a recycled
/// address can never alias a dead entry.
struct DedupEntry {
    weak: Weak<SmpParams>,
    /// Memoized scalar solves for the canonical kernel, keyed by the
    /// caller-encoded `(steps, policy, init)` word. Only successful solves
    /// are stored, so a hit is always a previously returned value.
    memo: HashMap<u64, f64>,
}

/// Registry-level content-addressed interning of [`SmpParams`].
///
/// Hosts whose histories coincide over a window estimate bit-identical
/// kernels. `intern` maps each freshly estimated kernel to a canonical
/// `Arc` by content hash (FNV over the sparse solver view, see
/// [`SmpParams::content_hash`]) with full [`PartialEq`] fallback on hash
/// match: a collision costs one comparison, never a wrong share. Because
/// every consumer then holds the *same* `Arc`, per-kernel solve results
/// can be memoized once and served to every host that shares the kernel.
/// `bench_smoke`'s `cluster_sweep_1k_hosts` (1000 hosts on one history)
/// is one solve plus 999 memo hits. Distinct histories rarely share: the
/// measured hit ratio was 0 on the wire benchmark's `query_hot` and
/// `day_rollover` and 0.018 on `cold_window` (seed 1), and 0.035 (50 of
/// 1 440 lookups) through `fgcs serve --oneshot` on a seed-2006 lab trace
/// of 20 machines × 30 days.
///
/// Entries hold only `Weak` handles: dropping the last consumer (e.g.
/// [`QhCache::clear`] or LRU eviction) makes the entry dead. An LRU
/// eviction prunes the dropped kernel's bucket at once, and
/// [`purge_dead`](KernelDedup::purge_dead) sweeps the whole table (after
/// `clear`).
#[derive(Default)]
pub struct KernelDedup {
    stripes: [Mutex<HashMap<u64, Vec<DedupEntry>>>; DEDUP_STRIPES],
    hits: AtomicU64,
    lookups: AtomicU64,
}

impl KernelDedup {
    /// Creates an empty dedup table.
    #[must_use]
    pub fn new() -> KernelDedup {
        KernelDedup::default()
    }

    /// Returns the canonical `Arc` for the params' content: the previously
    /// interned content-equal kernel when one is alive, otherwise `params`
    /// itself (now canonical). Dead entries in the probed bucket are pruned
    /// in passing.
    #[must_use]
    pub fn intern(&self, params: Arc<SmpParams>) -> Arc<SmpParams> {
        let hash = params.content_hash();
        self.intern_at(hash, params)
    }

    /// [`intern`](KernelDedup::intern) with the bucket hash supplied by the
    /// caller — the test seam for forcing hash collisions.
    fn intern_at(&self, hash: u64, params: Arc<SmpParams>) -> Arc<SmpParams> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let mut stripe = self.stripe(hash);
        let bucket = stripe.entry(hash).or_default();
        bucket.retain(|e| e.weak.strong_count() > 0);
        for entry in bucket.iter() {
            if let Some(existing) = entry.weak.upgrade() {
                // Hash match is a hint; only full content equality may
                // substitute one kernel for another.
                if *existing == *params {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    fgcs_runtime::counter_add!("core.registry.kernel_dedup_hits", 1);
                    return existing;
                }
            }
        }
        bucket.push(DedupEntry {
            weak: Arc::downgrade(&params),
            memo: HashMap::new(),
        });
        params
    }

    /// The memoized solve result for `(params, key)`, if the canonical
    /// kernel has one. `params` must be the canonical `Arc` returned by
    /// [`intern`](KernelDedup::intern) for hits to be found.
    #[must_use]
    pub fn memo_get(&self, params: &Arc<SmpParams>, key: u64) -> Option<f64> {
        let hash = params.content_hash();
        let stripe = self.stripe(hash);
        let bucket = stripe.get(&hash)?;
        let ptr = Arc::as_ptr(params);
        bucket
            .iter()
            .find(|e| e.weak.as_ptr() == ptr)?
            .memo
            .get(&key)
            .copied()
    }

    /// Records a solve result for `(params, key)`. A no-op when `params`
    /// was never interned (nothing to attach the memo to).
    pub fn memo_put(&self, params: &Arc<SmpParams>, key: u64, value: f64) {
        let hash = params.content_hash();
        let mut stripe = self.stripe(hash);
        let Some(bucket) = stripe.get_mut(&hash) else {
            return;
        };
        let ptr = Arc::as_ptr(params);
        if let Some(entry) = bucket.iter_mut().find(|e| e.weak.as_ptr() == ptr) {
            entry.memo.insert(key, value);
        }
    }

    /// Removes the dead entries of one hash bucket — what an LRU eviction
    /// calls for the bucket of the kernel it dropped.
    pub(crate) fn prune(&self, hash: u64) {
        let mut stripe = self.stripe(hash);
        if let Some(bucket) = stripe.get_mut(&hash) {
            bucket.retain(|e| e.weak.strong_count() > 0);
            if bucket.is_empty() {
                stripe.remove(&hash);
            }
        }
    }

    /// Sweeps out entries whose kernel has no live consumer, returning how
    /// many were removed and refreshing the
    /// `core.registry.kernel_dedup_entries` gauge.
    pub fn purge_dead(&self) -> usize {
        let mut removed = 0usize;
        for stripe in &self.stripes {
            let mut map = stripe.lock().expect("KernelDedup stripe poisoned");
            map.retain(|_, bucket| {
                let before = bucket.len();
                bucket.retain(|e| e.weak.strong_count() > 0);
                removed += before - bucket.len();
                !bucket.is_empty()
            });
        }
        fgcs_runtime::gauge_set!("core.registry.kernel_dedup_entries", self.entries() as f64);
        removed
    }

    /// Number of live interned kernels.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| {
                s.lock()
                    .expect("KernelDedup stripe poisoned")
                    .values()
                    .flat_map(|bucket| bucket.iter())
                    .filter(|e| e.weak.strong_count() > 0)
                    .count()
            })
            .sum()
    }

    /// Interns that returned an existing canonical kernel.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total intern attempts.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    fn stripe(&self, hash: u64) -> std::sync::MutexGuard<'_, HashMap<u64, Vec<DedupEntry>>> {
        self.stripes[(hash as usize) & (DEDUP_STRIPES - 1)]
            .lock()
            .expect("KernelDedup stripe poisoned")
    }
}

impl std::fmt::Debug for KernelDedup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelDedup")
            .field("entries", &self.entries())
            .field("hits", &self.hits())
            .field("lookups", &self.lookups())
            .finish()
    }
}

/// The coordinates that determine an estimated kernel.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct QhKey {
    host: u64,
    day_type: DayType,
    window: TimeWindow,
    max_history_days: Option<usize>,
    same_day_type_only: bool,
    /// Days in the store at estimation time — appends change this, giving
    /// implicit invalidation without touching the store's representation.
    history_days: usize,
}

/// A thread-safe LRU cache of estimated [`SmpParams`], shared across
/// queries via interior mutability (all methods take `&self`).
///
/// Values are held behind [`Arc`] so a hit hands back the cached kernel
/// without cloning its event lists. Since [`SmpParams`] keeps its solver
/// view (sorted event lists, lumped failure events, row totals) from
/// construction, a cache hit also skips that preprocessing: the fast
/// solver runs straight off the shared kernel with no per-query setup.
/// A kernel's size follows its sojourn events, not its horizon, so the
/// capacity bounds the cache's bytes as well as its entries; an evicted
/// kernel's dedup entry is pruned with it.
pub struct QhCache {
    inner: Mutex<LruCache<QhKey, Arc<SmpParams>>>,
    dedup: Arc<KernelDedup>,
}

impl QhCache {
    /// Creates a cache bounded to `capacity` kernels, with its own private
    /// [`KernelDedup`] table.
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> QhCache {
        QhCache::with_dedup(capacity, Arc::new(KernelDedup::new()))
    }

    /// Creates a cache bounded to `capacity` kernels that interns through a
    /// shared [`KernelDedup`] — how the sharded registry makes every shard
    /// share one canonical kernel per availability class.
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    #[must_use]
    pub fn with_dedup(capacity: usize, dedup: Arc<KernelDedup>) -> QhCache {
        QhCache {
            inner: Mutex::new(LruCache::new(capacity)),
            dedup,
        }
    }

    /// The dedup table every miss interns through.
    #[must_use]
    pub fn dedup(&self) -> &Arc<KernelDedup> {
        &self.dedup
    }

    /// Returns the cached kernel for the query coordinates, estimating and
    /// inserting it on a miss. Hits return the *same* parameters the first
    /// estimation produced, bit for bit.
    pub fn get_or_estimate(
        &self,
        predictor: &SmpPredictor,
        host: u64,
        history: &HistoryStore,
        day_type: DayType,
        window: TimeWindow,
    ) -> Result<Arc<SmpParams>, CoreError> {
        self.get_or_compute(
            predictor,
            host,
            history.days().len(),
            day_type,
            window,
            || {
                predictor
                    .estimate_params(history, day_type, window)
                    .map(Arc::new)
            },
        )
    }

    /// Like [`QhCache::get_or_estimate`], but with the kernel source
    /// abstracted: on a miss, `compute` supplies the parameters instead of
    /// the full-scan estimator. This is how the sharded serving registry
    /// populates the cache from its per-host [incremental
    /// estimators](crate::smp::IncrementalEstimator) — the key shape
    /// (including `history_days` for implicit append invalidation) is
    /// identical, so incremental and full-scan fills are interchangeable
    /// for the same coordinates (and bitwise so, per the estimator's
    /// contract).
    pub fn get_or_compute(
        &self,
        predictor: &SmpPredictor,
        host: u64,
        history_days: usize,
        day_type: DayType,
        window: TimeWindow,
        compute: impl FnOnce() -> Result<Arc<SmpParams>, CoreError>,
    ) -> Result<Arc<SmpParams>, CoreError> {
        let (max_history_days, same_day_type_only) = predictor.history_selection();
        let key = QhKey {
            host,
            day_type,
            window,
            max_history_days,
            same_day_type_only,
            history_days,
        };
        if let Some(params) = self.lock().get(&key) {
            fgcs_runtime::counter_add!("core.qh_cache.hits", 1);
            return Ok(Arc::clone(params));
        }
        fgcs_runtime::counter_add!("core.qh_cache.misses", 1);
        // Compute outside the lock: concurrent misses may estimate the
        // same kernel twice, but both sources are deterministic so either
        // result is the same value and the cache stays consistent.
        // Interning swaps the fresh estimate for the canonical
        // content-equal kernel (when one is alive), so hosts with identical
        // Q/H windows share one `Arc` — and one solve memo.
        let params = self.dedup.intern(compute()?);
        let evicted = {
            let mut cache = self.lock();
            let evicted = cache.put(key, Arc::clone(&params));
            fgcs_runtime::gauge_set!("core.qh_cache.entries", cache.len() as f64);
            evicted
        };
        if let Some((_, old)) = evicted {
            fgcs_runtime::counter_add!("core.qh_cache.evictions", 1);
            // The evicted kernel may have been its interned entry's last
            // consumer: drop it, then prune its bucket, so the entry and
            // its memo go with it.
            let hash = old.content_hash();
            drop(old);
            self.dedup.prune(hash);
        }
        Ok(params)
    }

    /// Drops every entry, and every dedup entry no other consumer holds.
    pub fn clear(&self) {
        self.lock().clear();
        self.dedup.purge_dead();
    }

    /// Number of kernels currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// The configured capacity bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.lock().capacity()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LruCache<QhKey, Arc<SmpParams>>> {
        self.inner.lock().expect("QhCache lock poisoned")
    }
}

impl Clone for QhCache {
    fn clone(&self) -> QhCache {
        QhCache {
            inner: Mutex::new(self.lock().clone()),
            dedup: Arc::clone(&self.dedup),
        }
    }
}

impl std::fmt::Debug for QhCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cache = self.lock();
        f.debug_struct("QhCache")
            .field("len", &cache.len())
            .field("capacity", &cache.capacity())
            .field("dedup_entries", &self.dedup.entries())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{DayLog, StateLog};
    use crate::model::AvailabilityModel;
    use crate::state::State::*;

    fn store(days: usize) -> HistoryStore {
        let mut s = HistoryStore::new();
        for day in 0..days {
            let samples: Vec<_> = (0..1000)
                .map(|i| if i % 97 == day % 7 { S2 } else { S1 })
                .collect();
            s.push_day(DayLog::new(day, StateLog::new(6, samples)));
        }
        s
    }

    fn predictor() -> SmpPredictor {
        SmpPredictor::new(AvailabilityModel::default())
    }

    #[test]
    fn hit_returns_bit_identical_params() {
        let cache = QhCache::new(4);
        let history = store(5);
        let p = predictor();
        let w = TimeWindow::new(0, 600);
        let first = cache
            .get_or_estimate(&p, 7, &history, DayType::Weekday, w)
            .unwrap();
        let second = cache
            .get_or_estimate(&p, 7, &history, DayType::Weekday, w)
            .unwrap();
        assert!(Arc::ptr_eq(&first, &second), "hit must share the Arc");
        assert_eq!(*first, *second);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn append_invalidates_implicitly() {
        let cache = QhCache::new(4);
        let mut history = store(4);
        let p = predictor();
        let w = TimeWindow::new(0, 600);
        let before = cache
            .get_or_estimate(&p, 1, &history, DayType::Weekday, w)
            .unwrap();
        // A new day with very different behaviour must change the answer.
        let failing: Vec<_> = (0..1000).map(|i| if i < 50 { S1 } else { S3 }).collect();
        history.push_day(DayLog::new(4, StateLog::new(6, failing)));
        let after = cache
            .get_or_estimate(&p, 1, &history, DayType::Weekday, w)
            .unwrap();
        assert!(!Arc::ptr_eq(&before, &after));
        assert_ne!(*before, *after);
    }

    #[test]
    fn different_hosts_and_windows_do_not_collide() {
        let cache = QhCache::new(8);
        let history = store(5);
        let p = predictor();
        let w1 = TimeWindow::new(0, 600);
        let w2 = TimeWindow::new(600, 600);
        cache
            .get_or_estimate(&p, 1, &history, DayType::Weekday, w1)
            .unwrap();
        cache
            .get_or_estimate(&p, 2, &history, DayType::Weekday, w1)
            .unwrap();
        cache
            .get_or_estimate(&p, 1, &history, DayType::Weekday, w2)
            .unwrap();
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn predictor_config_is_part_of_the_key() {
        let cache = QhCache::new(8);
        let history = store(10);
        let w = TimeWindow::new(0, 600);
        let all = predictor();
        let recent = predictor().with_max_history_days(2);
        let a = cache
            .get_or_estimate(&all, 1, &history, DayType::Weekday, w)
            .unwrap();
        let b = cache
            .get_or_estimate(&recent, 1, &history, DayType::Weekday, w)
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "different configs must not share");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn capacity_bounds_and_clear() {
        let cache = QhCache::new(2);
        let history = store(5);
        let p = predictor();
        for i in 0..5u32 {
            let w = TimeWindow::new(i * 600, 600);
            cache
                .get_or_estimate(&p, 1, &history, DayType::Weekday, w)
                .unwrap();
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.capacity(), 2);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn estimation_errors_pass_through() {
        let cache = QhCache::new(2);
        let empty = HistoryStore::new();
        let p = predictor();
        let w = TimeWindow::new(0, 600);
        assert!(matches!(
            cache.get_or_estimate(&p, 1, &empty, DayType::Weekday, w),
            Err(CoreError::EmptyHistory { .. })
        ));
        assert!(cache.is_empty(), "errors must not be cached");
    }

    /// Distinct `Arc`s over content-equal params (one day of shared pool
    /// history, as the cluster benches produce per host).
    fn equal_params() -> (Arc<SmpParams>, Arc<SmpParams>) {
        let day: Vec<_> = (0..200).map(|i| if i % 13 < 9 { S1 } else { S2 }).collect();
        let a = Arc::new(SmpParams::estimate(&[&day], 6, 199));
        let b = Arc::new(SmpParams::estimate(&[&day], 6, 199));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(*a, *b);
        (a, b)
    }

    #[test]
    fn dedup_interns_content_equal_kernels() {
        let dedup = KernelDedup::new();
        let (a, b) = equal_params();
        let ca = dedup.intern(Arc::clone(&a));
        assert!(Arc::ptr_eq(&ca, &a), "first intern is canonical");
        let cb = dedup.intern(b);
        assert!(Arc::ptr_eq(&cb, &a), "second intern shares the first Arc");
        assert_eq!(dedup.entries(), 1);
        assert_eq!(dedup.hits(), 1);
        assert_eq!(dedup.lookups(), 2);
    }

    #[test]
    fn dedup_hash_collision_falls_back_to_full_equality() {
        // Force both kernels into the same bucket: a collision must keep
        // them distinct (full equality arbitrates), and re-interning a copy
        // of either must return the matching canonical, never the
        // colliding neighbour.
        let dedup = KernelDedup::new();
        let (a, a2) = equal_params();
        let quiet = [S1; 200];
        let b = Arc::new(SmpParams::estimate(&[&quiet[..]], 6, 199));
        assert_ne!(*a, *b);
        let forced = 0xdead_beef_u64;
        let ca = dedup.intern_at(forced, Arc::clone(&a));
        let cb = dedup.intern_at(forced, Arc::clone(&b));
        assert!(Arc::ptr_eq(&ca, &a));
        assert!(Arc::ptr_eq(&cb, &b), "collision must not alias kernels");
        assert_eq!(dedup.entries(), 2);
        assert_eq!(dedup.hits(), 0);
        let ca2 = dedup.intern_at(forced, a2);
        assert!(Arc::ptr_eq(&ca2, &a), "copy resolves to its own canonical");
        assert_eq!(dedup.hits(), 1);
    }

    #[test]
    fn dedup_memo_round_trips_per_canonical_kernel() {
        let dedup = KernelDedup::new();
        let (a, b) = equal_params();
        let canon = dedup.intern(Arc::clone(&a));
        assert_eq!(dedup.memo_get(&canon, 7), None);
        dedup.memo_put(&canon, 7, 0.8125);
        assert_eq!(dedup.memo_get(&canon, 7), Some(0.8125));
        assert_eq!(dedup.memo_get(&canon, 8), None, "key is part of the memo");
        // The memo is addressed by the canonical Arc: a content-equal but
        // un-interned Arc neither hits nor corrupts it.
        assert_eq!(dedup.memo_get(&b, 7), None);
        dedup.memo_put(&b, 7, 0.5);
        assert_eq!(dedup.memo_get(&canon, 7), Some(0.8125));
    }

    #[test]
    fn dedup_entries_die_with_their_last_consumer() {
        let dedup = KernelDedup::new();
        let (a, _) = equal_params();
        let canon = dedup.intern(Arc::clone(&a));
        dedup.memo_put(&canon, 1, 0.25);
        assert_eq!(dedup.entries(), 1);
        drop(canon);
        drop(a);
        assert_eq!(dedup.entries(), 0, "dead weak no longer counts");
        assert_eq!(dedup.purge_dead(), 1);
        assert_eq!(dedup.purge_dead(), 0);
    }

    /// Live plus dead entries across every stripe.
    fn dedup_slots(dedup: &KernelDedup) -> usize {
        dedup
            .stripes
            .iter()
            .map(|s| s.lock().unwrap().values().map(Vec::len).sum::<usize>())
            .sum()
    }

    #[test]
    fn lru_eviction_prunes_dedup_entries() {
        // Distinct kernels through a small cache: each eviction drops the
        // last consumer of a kernel, and its dedup entry (with its memo)
        // must go too, or the table grows with every kernel ever seen.
        let cache = QhCache::new(4);
        let p = predictor();
        let w = TimeWindow::new(0, 600);
        for host in 0..1000u64 {
            let params = cache
                .get_or_compute(&p, host, 5, DayType::Weekday, w, || {
                    let mut kernel: [[Vec<f64>; 4]; 2] = Default::default();
                    for col in kernel.iter_mut().flatten() {
                        *col = vec![0.0; 11];
                    }
                    kernel[0][1][3] = (host + 1) as f64 * 1e-4;
                    Ok(Arc::new(SmpParams::from_kernel(6, kernel)))
                })
                .unwrap();
            cache.dedup().memo_put(&params, 1, 0.5);
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.dedup().entries(), 4);
        let slots = dedup_slots(cache.dedup());
        assert!(slots <= 4, "{slots} dedup entries for 4 live kernels");
        cache.clear();
        assert_eq!(dedup_slots(cache.dedup()), 0, "clear purges the table");
    }

    #[test]
    fn cache_misses_intern_through_shared_dedup() {
        // Two caches (think: two registry shards) wired to one dedup table
        // hand out the same canonical Arc for content-equal estimates.
        let dedup = Arc::new(KernelDedup::new());
        let ca = QhCache::with_dedup(4, Arc::clone(&dedup));
        let cb = QhCache::with_dedup(4, Arc::clone(&dedup));
        let history = store(5);
        let p = predictor();
        let w = TimeWindow::new(0, 600);
        let a = ca
            .get_or_estimate(&p, 1, &history, DayType::Weekday, w)
            .unwrap();
        let b = cb
            .get_or_estimate(&p, 9, &history, DayType::Weekday, w)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(dedup.entries(), 1);
    }
}
