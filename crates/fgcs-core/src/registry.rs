//! The sharded serving registry: per-host histories, incremental Q/H and
//! kernel caches partitioned across independent shards.
//!
//! `fgcs serve` answers TR queries while days keep arriving. A single flat
//! `HistoryStore` map behind one lock would serialize every ingest against
//! every query; [`ShardedRegistry`] instead routes
//! each host to one of N shards by a deterministic hash
//! ([`fgcs_runtime::shard::shard_of`]), and each shard owns
//!
//! * its hosts' [`HistoryStore`]s plus their per-coordinate
//!   [`IncrementalEstimator`]s, and
//! * a per-shard [`QhCache`] memoizing built kernels,
//!
//! so operations on different shards never contend, and operations on the
//! same shard contend only on that shard's mutex.
//!
//! **Determinism.** Shard routing affects only *which lock* serializes an
//! operation, never the answer: queries read exactly one host's state, and
//! ingest is append-only per host. A registry with 1 shard and one with N
//! shards return bit-identical TR values for the same ingests (asserted by
//! tests here and byte-identical serve responses in the integration suite).
//!
//! **Incremental estimation.** Query misses are filled from the host's
//! [`IncrementalEstimator`] for that `(day_type, window)` coordinate —
//! O(1) amortized per ingested sample, bitwise-equal to the full-scan
//! estimate (see [`crate::smp::incremental`]). Each host keeps a small
//! bounded set of estimator coordinates; queries beyond that budget fall
//! back to the full-scan oracle, which returns the same bits at rescan
//! cost.
//!
//! **Durability.** With [`RegistryConfig::data_dir`] set, every ingest is
//! written ahead to a per-shard [`fgcs_runtime::wal`] log *before* it is
//! applied (`shard-N.wal`, one CRC-framed JSON record per day) and fsynced
//! at [`RegistryConfig::fsync_every`]. Every
//! [`RegistryConfig::snapshot_every`] records the shard also writes a
//! whole-shard snapshot (`shard-N.snap`, written to a temp file and
//! atomically renamed). The snapshot is a second copy, not a compaction:
//! nothing truncates the WAL, which keeps every record ever appended.
//!
//! Both files store a day as the run text of its [`StateLog`]
//! ([`encode_wal_record`]): each run as its state digit repeated, or as
//! `<digit>(<count>)` where that is shorter. A 14 400-sample day of about
//! 55 runs takes a few hundred bytes, not one byte per sample, and the
//! samples are never built on the way: the wire's digits are cut into
//! runs, the runs are written. Builds before the run text stored one digit
//! per sample; that text is run text without a count, so one decoder reads
//! both. An older build cannot read a dir this one wrote (it takes the
//! first counted run as damage).
//!
//! [`ShardedRegistry::recover`] pools every `(host, day)` found in any
//! snapshot or WAL file (each frame decoded in place by `JsonSlice`, each
//! day's text straight into runs), sorts each host's days, and replays
//! them through the step every ingest ends with — so recovered predictions
//! are **bit-identical** to an uninterrupted run over the surviving records
//! (the recovery ≡ replay invariant; property-tested below and in
//! `tests/recovery.rs`). A torn or corrupt WAL tail is truncated, never
//! fatal; a CRC-valid record that does not decode ends that file's replay
//! like damage; a missing snapshot loses nothing the WAL still holds.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use fgcs_runtime::fault::FaultInjector;
use fgcs_runtime::json::{Field, JsonSlice};
use fgcs_runtime::shard::shard_of;
use fgcs_runtime::wal::{self, WalWriter};

use crate::batch::TrCurve;
use crate::cache::{KernelDedup, QhCache};
use crate::error::CoreError;
use crate::log::{DayLog, HistoryStore, StateLog};
use crate::model::AvailabilityModel;
use crate::predictor::SmpPredictor;
use crate::smp::{IncrementalEstimator, SmpParams};
use crate::state::State;
use crate::window::{DayType, TimeWindow};

/// Configuration for a [`ShardedRegistry`].
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Number of shards (threads ingesting/querying disjoint shards never
    /// contend). Must be at least 1.
    pub shards: usize,
    /// Sliding history bound per estimator (`None` = all qualifying days),
    /// mirroring `SmpPredictor::with_max_history_days`.
    pub max_history_days: Option<usize>,
    /// Built-kernel cache capacity *per shard*.
    pub qh_capacity_per_shard: usize,
    /// Distinct `(day_type, window)` estimator coordinates maintained
    /// incrementally per host; further coordinates fall back to full-scan
    /// estimation (same bits, rescan cost).
    pub max_estimators_per_host: usize,
    /// Durability root: per-shard WAL + snapshot files live here. `None`
    /// keeps the registry purely in memory (the pre-durability behavior).
    pub data_dir: Option<PathBuf>,
    /// Fsync the WAL after this many un-synced appends per shard (`1` =
    /// every ack is durable against machine crash; any ack survives a
    /// process kill regardless). `0` = never fsync implicitly.
    pub fsync_every: u64,
    /// Write a whole-shard snapshot every this many WAL appends per
    /// shard (`0` = only on [`ShardedRegistry::snapshot_all`]).
    pub snapshot_every: u64,
    /// Test-only `wal.*` fault wiring (torn writes, bit flips, lost
    /// snapshots) for crash-point campaigns. `None` in production.
    pub wal_faults: Option<FaultInjector>,
}

impl Default for RegistryConfig {
    fn default() -> RegistryConfig {
        RegistryConfig {
            shards: 8,
            max_history_days: None,
            qh_capacity_per_shard: 4096,
            max_estimators_per_host: 4,
            data_dir: None,
            fsync_every: 256,
            snapshot_every: 4096,
            wal_faults: None,
        }
    }
}

/// An error from a registry operation.
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryError {
    /// The queried host has never been ingested.
    UnknownHost(u64),
    /// An ingested day's index does not advance the host's calendar.
    NonMonotonicDay {
        /// The offending host.
        host: u64,
        /// The host's most recent stored day index.
        last: usize,
        /// The offered day index (must exceed `last`).
        offered: usize,
    },
    /// An ingested day carried no samples.
    EmptyDay {
        /// The offending host.
        host: u64,
    },
    /// A day without an explicit index was offered to a host whose last
    /// stored day index is `usize::MAX`: no later index exists.
    CalendarExhausted {
        /// The offending host.
        host: u64,
        /// The host's most recent stored day index.
        last: usize,
    },
    /// The underlying estimation or solve failed.
    Core(CoreError),
    /// A durability operation (WAL append/fsync, snapshot, recovery
    /// scan) failed at the filesystem.
    Io(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownHost(host) => write!(f, "unknown host {host}"),
            RegistryError::NonMonotonicDay {
                host,
                last,
                offered,
            } => write!(
                f,
                "host {host}: day index {offered} does not advance the calendar (last {last})"
            ),
            RegistryError::EmptyDay { host } => {
                write!(f, "host {host}: ingested day carries no samples")
            }
            RegistryError::CalendarExhausted { host, last } => write!(
                f,
                "host {host}: calendar exhausted, no day index follows {last}"
            ),
            RegistryError::Core(e) => write!(f, "{e}"),
            RegistryError::Io(e) => write!(f, "durability i/o failure: {e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<CoreError> for RegistryError {
    fn from(e: CoreError) -> RegistryError {
        RegistryError::Core(e)
    }
}

impl From<io::Error> for RegistryError {
    fn from(e: io::Error) -> RegistryError {
        RegistryError::Io(e.to_string())
    }
}

/// Acknowledgement of a successful ingest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestAck {
    /// The host the day was appended to.
    pub host: u64,
    /// The day index the day was stored under (explicit or auto-assigned).
    pub day_index: usize,
    /// Days now stored for the host.
    pub days: usize,
}

/// Aggregate registry counters (takes every shard lock once).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryStats {
    /// Number of shards.
    pub shards: usize,
    /// Hosts with at least one ingested day.
    pub hosts: usize,
    /// Total stored days across all hosts (every acknowledged ingest
    /// appends one day, and nothing removes days).
    pub days: usize,
    /// Kernel interns that found an existing canonical kernel (cross-host
    /// sharing events).
    pub kernel_dedup_hits: u64,
    /// Total kernel intern attempts (hit rate = hits / lookups).
    pub kernel_dedup_lookups: u64,
    /// Live interned kernels (distinct availability classes in service).
    pub kernel_dedup_entries: usize,
    /// Whether a data dir is attached (WAL + snapshots active).
    pub durable: bool,
    /// Total WAL records across shards (0 when not durable).
    pub wal_records: u64,
    /// WAL records covered by the last fsync, across shards.
    pub wal_synced_records: u64,
    /// WAL records appended since the last snapshot, across shards (the
    /// replay debt a crash right now would cost).
    pub snapshot_lag: u64,
    /// Snapshots written over this registry's lifetime.
    pub snapshots_written: u64,
    /// Snapshot write failures survived (durability fell back to pure
    /// WAL replay; the data is still safe).
    pub snapshot_failures: u64,
    /// Shards whose mutex was poisoned by a panicking request and have
    /// been recovered into degraded (quality-tagged) service.
    pub poisoned_shards: usize,
}

struct HostEntry {
    history: HistoryStore,
    estimators: Vec<((DayType, TimeWindow), IncrementalEstimator)>,
}

struct Shard {
    /// This shard's index (the fault stream key for `wal.*` campaigns).
    index: usize,
    hosts: HashMap<u64, HostEntry>,
    qh: QhCache,
    /// Write-ahead log for this shard (`None` when not durable).
    wal: Option<WalWriter>,
    /// Reusable WAL record serialization buffer (no allocation on the
    /// append hot path).
    wal_buf: Vec<u8>,
    /// Snapshot file path (`None` when not durable).
    snap_path: Option<PathBuf>,
    /// WAL appends since the last snapshot.
    records_since_snapshot: u64,
    snapshots_written: u64,
    snapshot_failures: u64,
}

impl Shard {
    fn new(index: usize, qh_capacity: usize, dedup: &Arc<KernelDedup>) -> Shard {
        Shard {
            index,
            hosts: HashMap::new(),
            qh: QhCache::with_dedup(qh_capacity, Arc::clone(dedup)),
            wal: None,
            wal_buf: Vec::new(),
            snap_path: None,
            records_since_snapshot: 0,
            snapshots_written: 0,
            snapshot_failures: 0,
        }
    }
}

/// The hash-partitioned serving registry (see the module docs).
///
/// All methods take `&self`: shards synchronize internally, so a single
/// registry can be shared across ingest and query threads directly (or via
/// [`Arc`]).
pub struct ShardedRegistry {
    shards: Vec<Mutex<Shard>>,
    predictor: SmpPredictor,
    model: AvailabilityModel,
    max_estimators_per_host: usize,
    /// One dedup table shared by every shard's kernel cache: hosts with
    /// identical Q/H windows resolve to one canonical `Arc<SmpParams>`
    /// regardless of which shard they live on, and scalar solves are
    /// memoized once per canonical kernel.
    dedup: Arc<KernelDedup>,
    /// Snapshot cadence in WAL records per shard (0 = explicit only).
    snapshot_every: u64,
    /// Sticky per-shard poison flags: set the first time a shard mutex
    /// is recovered from a panicking request, never cleared — the shard
    /// keeps serving, quality-tagged, until the process restarts.
    poisoned: Vec<AtomicBool>,
    poison_events: AtomicU64,
    /// Test-only `wal.*` fault wiring (stream = shard index).
    wal_faults: Option<FaultInjector>,
}

impl ShardedRegistry {
    /// Creates an empty registry. With [`RegistryConfig::data_dir`] set
    /// this also recovers any existing durable state, so prefer
    /// [`ShardedRegistry::open`] (which surfaces I/O errors) for durable
    /// configurations.
    ///
    /// # Panics
    /// Panics when `config.shards` is zero, the cache capacity is zero,
    /// or (durable configurations only) the data dir cannot be opened.
    #[must_use]
    pub fn new(config: RegistryConfig) -> ShardedRegistry {
        ShardedRegistry::open(config).expect("registry data dir open/recovery failed")
    }

    /// Creates a registry, attaching (and recovering) the durable state
    /// under `config.data_dir` when one is configured. A fresh or empty
    /// dir starts an empty registry; an existing dir is recovered by
    /// replay (see [`ShardedRegistry::recover`]).
    ///
    /// # Panics
    /// Panics when `config.shards` is zero or the cache capacity is zero.
    pub fn open(config: RegistryConfig) -> Result<ShardedRegistry, RegistryError> {
        assert!(config.shards > 0, "registry needs at least one shard");
        let model = AvailabilityModel::default();
        let mut predictor = SmpPredictor::new(model);
        if let Some(n) = config.max_history_days {
            predictor = predictor.with_max_history_days(n);
        }
        let dedup = Arc::new(KernelDedup::new());
        let shards = (0..config.shards)
            .map(|i| Mutex::new(Shard::new(i, config.qh_capacity_per_shard, &dedup)))
            .collect();
        let poisoned = (0..config.shards).map(|_| AtomicBool::new(false)).collect();
        let reg = ShardedRegistry {
            shards,
            predictor,
            model,
            max_estimators_per_host: config.max_estimators_per_host,
            dedup,
            snapshot_every: config.snapshot_every,
            poisoned,
            poison_events: AtomicU64::new(0),
            wal_faults: config.wal_faults.clone(),
        };
        if let Some(dir) = &config.data_dir {
            reg.attach_data_dir(dir, config.fsync_every)?;
        }
        Ok(reg)
    }

    /// Recovers a registry from the durable state under `dir` with the
    /// default configuration — the one-argument form of
    /// [`ShardedRegistry::open`].
    pub fn recover(dir: &Path) -> Result<ShardedRegistry, RegistryError> {
        ShardedRegistry::open(RegistryConfig {
            data_dir: Some(dir.to_path_buf()),
            ..RegistryConfig::default()
        })
    }

    /// The availability model stamping ingested days.
    #[must_use]
    pub fn model(&self) -> &AvailabilityModel {
        &self.model
    }

    /// Appends one day of classified states to `host`'s history: the
    /// samples cut into runs, then [`ingest_log`](ShardedRegistry::ingest_log).
    pub fn ingest_day(
        &self,
        host: u64,
        day_index: Option<usize>,
        states: Vec<State>,
    ) -> Result<IngestAck, RegistryError> {
        self.ingest_log(
            host,
            day_index,
            StateLog::new(self.model.monitor_period_secs, states),
        )
    }

    /// Appends one day, already cut into runs, to `host`'s history.
    ///
    /// `day_index` anchors the weekday/weekend calendar; when `None` the
    /// day is stored under the host's next consecutive index (0 for a new
    /// host). Explicit indices must strictly advance the host's calendar —
    /// gaps are allowed (they model quarantined or lost days) but reuse and
    /// regression are rejected, which is what keeps every host history
    /// append-only and the incremental estimators exact.
    ///
    /// Write-ahead ordering: the day is validated, appended to the shard's
    /// WAL (when durable) as its run text, and only then applied in memory
    /// — an acknowledged ingest is always at least OS-buffer durable, and a
    /// WAL failure leaves the in-memory state untouched.
    ///
    /// # Panics
    /// Panics when the log's step is not the model's monitoring period:
    /// the WAL record does not carry the step, so recovery would read the
    /// day at another one.
    pub fn ingest_log(
        &self,
        host: u64,
        day_index: Option<usize>,
        log: StateLog,
    ) -> Result<IngestAck, RegistryError> {
        assert_eq!(
            log.step_secs(),
            self.model.monitor_period_secs,
            "an ingested day must be sampled at the model's monitoring period"
        );
        if log.is_empty() {
            return Err(RegistryError::EmptyDay { host });
        }
        let mut guard = self.shard_for(host);
        let shard = &mut *guard;
        let idx = Self::day_index_locked(shard, host, day_index)?;
        let Shard { wal, wal_buf, .. } = &mut *shard;
        if let Some(wal) = wal.as_mut() {
            encode_wal_record(wal_buf, host, idx, &log);
            wal.append(wal_buf)?;
            shard.records_since_snapshot += 1;
            fgcs_runtime::counter_add!("core.registry.wal_appends", 1);
        }
        let ack = Self::append_day_locked(shard, host, idx, log);
        if self.snapshot_every > 0 && shard.records_since_snapshot >= self.snapshot_every {
            // Snapshot failure is survivable: the WAL still holds every
            // record, so recovery only replays more. Count it and move on.
            if self.snapshot_shard_locked(shard).is_err() {
                shard.snapshot_failures += 1;
                fgcs_runtime::counter_add!("core.registry.snapshot_failures", 1);
            }
        }
        Ok(ack)
    }

    /// The index a day offered to `host` is stored under: `day_index`, or
    /// the host's next consecutive index (0 for a new host). The index
    /// must strictly advance the host's calendar.
    fn day_index_locked(
        shard: &Shard,
        host: u64,
        day_index: Option<usize>,
    ) -> Result<usize, RegistryError> {
        let last = shard
            .hosts
            .get(&host)
            .and_then(|e| e.history.days().last().map(|d| d.day_index));
        match (last, day_index) {
            (None, offered) => Ok(offered.unwrap_or(0)),
            (Some(last), None) => last
                .checked_add(1)
                .ok_or(RegistryError::CalendarExhausted { host, last }),
            (Some(last), Some(offered)) if offered <= last => Err(RegistryError::NonMonotonicDay {
                host,
                last,
                offered,
            }),
            (Some(_), Some(offered)) => Ok(offered),
        }
    }

    /// Appends a validated day to `host`'s history (creating the host) and
    /// folds it into the host's live estimators — the step ingest and
    /// recovery replay share.
    fn append_day_locked(shard: &mut Shard, host: u64, idx: usize, log: StateLog) -> IngestAck {
        let samples = log.len();
        let entry = shard.hosts.entry(host).or_insert_with(|| HostEntry {
            history: HistoryStore::new(),
            estimators: Vec::new(),
        });
        entry.history.push_day(DayLog::new(idx, log));
        // Fold the new day into every live estimator now, while the ingest
        // holds the shard lock anyway — queries then only rebuild kernels,
        // never re-scan history.
        for (_, est) in &mut entry.estimators {
            est.sync(&entry.history);
        }
        fgcs_runtime::counter_add!("core.registry.ingested_days", 1);
        fgcs_runtime::counter_add!("core.registry.ingested_samples", samples as u64);
        IngestAck {
            host,
            day_index: idx,
            days: entry.history.len(),
        }
    }

    /// Predicts the scalar TR for `host` over `window` on a `day_type` day,
    /// given the machine's state at the window start. Bit-identical to
    /// [`SmpPredictor::predict`] over the same history.
    pub fn predict(
        &self,
        host: u64,
        day_type: DayType,
        window: TimeWindow,
        init: State,
    ) -> Result<f64, RegistryError> {
        let mut guard = self.shard_for(host);
        self.predict_locked(&mut guard, host, day_type, window, init)
    }

    fn predict_locked(
        &self,
        shard: &mut Shard,
        host: u64,
        day_type: DayType,
        window: TimeWindow,
        init: State,
    ) -> Result<f64, RegistryError> {
        if init.is_failure() {
            return Err(CoreError::FailureInitialState(init).into());
        }
        fgcs_runtime::counter_add!("core.registry.queries", 1);
        let params = self.params_for_locked(shard, host, day_type, window)?;
        let steps = window.steps(self.model.monitor_period_secs);
        // Per-kernel solve memo: hosts sharing the canonical kernel pay the
        // Eq.-3 recursion once per step count, for both operational
        // inits, and read the stored bits afterwards.
        Ok(self
            .predictor
            .memoized_tr(&self.dedup, &params, init, steps)?)
    }

    /// Predicts the full TR curve (both operational initial states) for
    /// `host` over `window`. Bit-identical to
    /// [`SmpPredictor::predict_tr_curve`] over the same history.
    pub fn sweep(
        &self,
        host: u64,
        day_type: DayType,
        window: TimeWindow,
    ) -> Result<TrCurve, RegistryError> {
        let mut guard = self.shard_for(host);
        fgcs_runtime::counter_add!("core.registry.queries", 1);
        let params = self.params_for_locked(&mut guard, host, day_type, window)?;
        let steps = window.steps(self.model.monitor_period_secs);
        Ok(self.predictor.solve_tr_curve(&params, steps)?)
    }

    /// Days currently stored for `host`, or `None` for unknown hosts.
    #[must_use]
    pub fn host_days(&self, host: u64) -> Option<usize> {
        self.shard_for(host)
            .hosts
            .get(&host)
            .map(|e| e.history.len())
    }

    /// Aggregate counters across all shards.
    #[must_use]
    pub fn stats(&self) -> RegistryStats {
        let mut stats = RegistryStats {
            shards: self.shards.len(),
            hosts: 0,
            days: 0,
            kernel_dedup_hits: 0,
            kernel_dedup_lookups: 0,
            kernel_dedup_entries: 0,
            durable: false,
            wal_records: 0,
            wal_synced_records: 0,
            snapshot_lag: 0,
            snapshots_written: 0,
            snapshot_failures: 0,
            poisoned_shards: 0,
        };
        for i in 0..self.shards.len() {
            let guard = self.lock(i);
            stats.hosts += guard.hosts.len();
            stats.days += guard.hosts.values().map(|e| e.history.len()).sum::<usize>();
            if let Some(wal) = &guard.wal {
                stats.durable = true;
                stats.wal_records += wal.records();
                stats.wal_synced_records += wal.synced_records();
            }
            stats.snapshot_lag += guard.records_since_snapshot;
            stats.snapshots_written += guard.snapshots_written;
            stats.snapshot_failures += guard.snapshot_failures;
        }
        stats.poisoned_shards = self.poisoned_shards();
        stats.kernel_dedup_hits = self.dedup.hits();
        stats.kernel_dedup_lookups = self.dedup.lookups();
        stats.kernel_dedup_entries = self.dedup.entries();
        stats
    }

    /// The shard index `host` routes to.
    #[must_use]
    pub fn shard_index(&self, host: u64) -> usize {
        shard_of(host, self.shards.len())
    }

    /// Opens a session on one shard: the shard lock is taken once and held
    /// for the session's lifetime, so several predicts against that
    /// shard's hosts pay one lock acquisition. Hosts routed to other
    /// shards are the caller's responsibility (enforced by debug
    /// assertion).
    ///
    /// # Panics
    /// Panics when `shard` is out of range.
    #[must_use]
    pub fn session(&self, shard: usize) -> ShardSession<'_> {
        ShardSession {
            registry: self,
            shard,
            guard: self.lock(shard),
        }
    }

    /// Builds (or fetches) the kernel for a query: per-shard cache first,
    /// then the host's incremental estimator, then the full-scan fallback.
    fn params_for_locked(
        &self,
        shard: &mut Shard,
        host: u64,
        day_type: DayType,
        window: TimeWindow,
    ) -> Result<Arc<SmpParams>, RegistryError> {
        let entry = shard
            .hosts
            .get_mut(&host)
            .ok_or(RegistryError::UnknownHost(host))?;
        let history_days = entry.history.len();
        let HostEntry {
            history,
            estimators,
        } = entry;
        let predictor = &self.predictor;
        let step = self.model.monitor_period_secs;
        let max_days = predictor.history_selection().0;
        let max_estimators = self.max_estimators_per_host;
        let params =
            shard
                .qh
                .get_or_compute(predictor, host, history_days, day_type, window, || {
                    let slot = match estimators
                        .iter()
                        .position(|(coord, _)| *coord == (day_type, window))
                    {
                        Some(i) => Some(i),
                        None if estimators.len() < max_estimators => {
                            estimators.push((
                                (day_type, window),
                                IncrementalEstimator::new(step, day_type, window, max_days),
                            ));
                            Some(estimators.len() - 1)
                        }
                        None => None,
                    };
                    match slot {
                        Some(i) => {
                            fgcs_runtime::counter_add!("core.registry.incremental_rebuilds", 1);
                            estimators[i]
                                .1
                                .sync_and_params(history)
                                .map(Arc::new)
                                .ok_or(CoreError::EmptyHistory { window })
                        }
                        // Estimator budget exhausted for this host: full-scan
                        // oracle (same bits, rescan cost).
                        None => {
                            fgcs_runtime::counter_add!("core.registry.fullscan_fallbacks", 1);
                            predictor
                                .estimate_params(history, day_type, window)
                                .map(Arc::new)
                        }
                    }
                })?;
        Ok(params)
    }

    /// Attaches the durable files under `dir` to every shard, recovering
    /// any existing state first: every `(host, day)` found in any
    /// snapshot or WAL file is pooled, deduplicated, sorted per host,
    /// and replayed through the ordinary ingest path — which is what
    /// makes recovered state bit-identical to an uninterrupted run over
    /// the surviving records. Torn or corrupt WAL tails are truncated
    /// (and the file is physically cut back to its valid prefix before
    /// new appends), damaged snapshots are ignored.
    fn attach_data_dir(&self, dir: &Path, fsync_every: u64) -> Result<(), RegistryError> {
        std::fs::create_dir_all(dir)?;
        // Every shard file present, from any shard-count generation.
        let mut indices: Vec<u64> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            let stem = name
                .strip_prefix("shard-")
                .and_then(|r| r.strip_suffix(".wal").or_else(|| r.strip_suffix(".snap")));
            if let Some(i) = stem.and_then(|n| n.parse::<u64>().ok()) {
                indices.push(i);
            }
        }
        indices.sort_unstable();
        indices.dedup();
        // Pool every surviving (host, day) from snapshots and WALs, each day
        // decoded straight into runs. The BTreeMaps give a deterministic,
        // per-host-sorted replay order regardless of which file (or
        // shard-count generation) a record came from; insert-if-absent
        // dedups snapshot/WAL overlap.
        let step = self.model.monitor_period_secs;
        let mut pool = Pool::new();
        let mut wal_meta: HashMap<usize, (u64, u64)> = HashMap::new();
        for &i in &indices {
            let snap = wal::read_wal(&dir.join(format!("shard-{i}.snap")))?;
            if snap.damage.is_some() {
                fgcs_runtime::counter_add!("core.registry.snapshot_damage", 1);
            }
            // Frame 0 is the snapshot meta; host frames follow. A valid
            // prefix of host frames is still useful under pooling.
            for frame in snap.records.iter().skip(1) {
                if pool_snapshot_host(frame, step, &mut pool).is_err() {
                    fgcs_runtime::counter_add!("core.registry.snapshot_damage", 1);
                    break;
                }
            }
            // Freed before the WAL is read, so at most one file image is
            // resident at a time.
            drop(snap);
            let read = wal::read_wal(&dir.join(format!("shard-{i}.wal")))?;
            if read.damage.is_some() {
                fgcs_runtime::counter_add!("core.registry.wal_tail_truncations", 1);
            }
            // The prefix to keep, in bytes and frames: every frame that
            // pooled.
            let (mut kept_bytes, mut kept) = (0u64, 0u64);
            for rec in &read.records {
                if pool_wal_record(rec, step, &mut pool).is_err() {
                    // CRC-valid but unparseable: treat like tail damage —
                    // keep the prefix, and cut the file at this record so
                    // fresh appends never land behind it.
                    fgcs_runtime::counter_add!("core.registry.wal_tail_truncations", 1);
                    break;
                }
                kept_bytes += (wal::HEADER_BYTES + rec.len()) as u64;
                kept += 1;
            }
            if let Ok(s) = usize::try_from(i) {
                wal_meta.insert(s, (kept_bytes, kept));
            }
        }
        let replayed: usize = pool.values().map(BTreeMap::len).sum();
        for (host, days) in pool {
            let mut guard = self.shard_for(host);
            for (idx, log) in days {
                // Sorted unique days always advance the calendar; the
                // check stays so a violation fails recovery loudly. No
                // writer is attached yet, so replay appends no WAL.
                Self::day_index_locked(&guard, host, Some(idx))?;
                Self::append_day_locked(&mut guard, host, idx, log);
            }
        }
        // Attach a writer per live shard, truncating any damaged tail so
        // fresh frames never follow damage.
        for s in 0..self.shards.len() {
            let wal_path = dir.join(format!("shard-{s}.wal"));
            let (valid_bytes, records) = wal_meta.get(&s).copied().unwrap_or((0, 0));
            let mut writer =
                WalWriter::open_truncated(&wal_path, fsync_every, valid_bytes, records)
                    .map_err(RegistryError::from)?;
            if let Some(inj) = &self.wal_faults {
                writer = writer.with_faults(inj.clone(), s as u64);
            }
            let mut guard = self.lock(s);
            guard.wal = Some(writer);
            guard.snap_path = Some(dir.join(format!("shard-{s}.snap")));
        }
        if replayed > 0 {
            fgcs_runtime::counter_add!("core.registry.recovered_days", replayed as u64);
            // Consolidate: one snapshot generation covering everything
            // recovered, so later recoveries need no cross-generation
            // pooling and start from a clean replay debt.
            self.snapshot_all()?;
        }
        Ok(())
    }

    /// Serializes and atomically replaces one shard's snapshot file:
    /// meta frame + one frame per host (hosts sorted for determinism),
    /// written to a temp file, fsynced, renamed over the live name, dir
    /// fsynced. A crash at any point leaves either the old or the new
    /// snapshot intact — never a half-written one (the rename is the
    /// commit point).
    fn snapshot_shard_locked(&self, shard: &mut Shard) -> Result<(), RegistryError> {
        let Some(path) = shard.snap_path.clone() else {
            return Ok(());
        };
        let wal_records = shard.wal.as_ref().map_or(0, WalWriter::records);
        let tmp = path.with_extension("snap.tmp");
        let mut file = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        let mut buf = Vec::new();
        let _ = write!(
            buf,
            "{{\"schema\":\"fgcs-snap-v1\",\"step_secs\":{},\"wal_records\":{wal_records},\"hosts\":{}}}",
            self.model.monitor_period_secs,
            shard.hosts.len()
        );
        wal::write_frame(&mut file, &buf)?;
        let mut hosts: Vec<&u64> = shard.hosts.keys().collect();
        hosts.sort_unstable();
        for host in hosts {
            buf.clear();
            let _ = write!(buf, "{{\"host\":{host},\"days\":[");
            for (d, day) in shard.hosts[host].history.days().iter().enumerate() {
                let sep = if d > 0 { "," } else { "" };
                let _ = write!(buf, "{sep}{{\"i\":{},\"s\":\"", day.day_index);
                day.log.write_run_text(&mut buf);
                buf.extend_from_slice(b"\"}");
            }
            buf.extend_from_slice(b"]}");
            wal::write_frame(&mut file, &buf)?;
        }
        let file = file
            .into_inner()
            .map_err(|e| RegistryError::Io(format!("snapshot flush failed: {}", e.error())))?;
        file.sync_data()?;
        drop(file);
        let snap_index = shard.snapshots_written;
        let lost = self
            .wal_faults
            .as_ref()
            .is_some_and(|inj| inj.wal_snapshot_lost(shard.index as u64, snap_index));
        if lost {
            // Injected crash before the rename: the temp file never
            // becomes the live snapshot. The WAL still covers everything.
            let _ = std::fs::remove_file(&tmp);
        } else {
            std::fs::rename(&tmp, &path)?;
            if let Some(parent) = path.parent() {
                if let Ok(d) = std::fs::File::open(parent) {
                    let _ = d.sync_all();
                }
            }
        }
        shard.records_since_snapshot = 0;
        shard.snapshots_written += 1;
        fgcs_runtime::counter_add!("core.registry.snapshots_written", 1);
        Ok(())
    }

    /// Writes a snapshot of every shard (called on recovery and by
    /// graceful shutdown). No-op for non-durable registries.
    pub fn snapshot_all(&self) -> Result<(), RegistryError> {
        for i in 0..self.shards.len() {
            let mut guard = self.lock(i);
            self.snapshot_shard_locked(&mut guard)?;
        }
        Ok(())
    }

    /// Fsyncs every shard's WAL, making every acknowledged ingest
    /// durable against machine crash. No-op for non-durable registries.
    pub fn sync_all(&self) -> Result<(), RegistryError> {
        for i in 0..self.shards.len() {
            let mut guard = self.lock(i);
            if let Some(w) = guard.wal.as_mut() {
                w.sync()?;
            }
        }
        Ok(())
    }

    /// Whether `shard`'s mutex was ever recovered from a panicking
    /// request (sticky until restart; predictions from such a shard are
    /// quality-tagged by the serving layer).
    #[must_use]
    pub fn shard_poisoned(&self, shard: usize) -> bool {
        self.poisoned[shard].load(Ordering::Relaxed)
    }

    /// Number of shards with the sticky poison flag set.
    #[must_use]
    pub fn poisoned_shards(&self) -> usize {
        self.poisoned
            .iter()
            .filter(|p| p.load(Ordering::Relaxed))
            .count()
    }

    fn shard_for(&self, host: u64) -> MutexGuard<'_, Shard> {
        self.lock(shard_of(host, self.shards.len()))
    }

    /// Takes a shard lock, recovering (rather than propagating) poison:
    /// a request that panicked mid-operation must degrade one shard, not
    /// kill every thread that touches it afterwards. The first recovery
    /// sets the shard's sticky poison flag for quality accounting.
    fn lock(&self, shard: usize) -> MutexGuard<'_, Shard> {
        match self.shards[shard].lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                if !self.poisoned[shard].swap(true, Ordering::Relaxed) {
                    self.poison_events.fetch_add(1, Ordering::Relaxed);
                    fgcs_runtime::counter_add!("core.registry.shard_poisonings", 1);
                }
                poisoned.into_inner()
            }
        }
    }
}

/// Serializes one ingest as a WAL record,
/// `{"host":..,"day_index":..,"states":".."}` with the day's run text
/// (each run as its state digit repeated, or as `<digit>(<count>)` where
/// that is shorter), into a reused buffer: the append hot path allocates
/// nothing once the buffer has grown to a day.
// lint: no-alloc
pub fn encode_wal_record(buf: &mut Vec<u8>, host: u64, day_index: usize, log: &StateLog) {
    buf.clear();
    let _ = write!(
        buf,
        "{{\"host\":{host},\"day_index\":{day_index},\"states\":\""
    );
    log.write_run_text(buf);
    buf.extend_from_slice(b"\"}");
}

/// The recovery pool: every surviving day, cut into runs, by host and day
/// index.
type Pool = BTreeMap<u64, BTreeMap<usize, StateLog>>;

/// Pools one stored day, decoding its run text (or the plain digits an
/// earlier build wrote) straight into runs, unless that `(host, day)` is
/// already present (snapshot and WAL overlap by design; first occurrence
/// wins — the sources are write-once so duplicates are identical). Text
/// that does not decode, an empty day included, is damage.
fn pool_day(pool: &mut Pool, host: u64, day_index: usize, text: &str, step: u32) -> Result<(), ()> {
    let log = StateLog::from_run_text(step, text.as_bytes()).map_err(|_| ())?;
    pool.entry(host)
        .or_default()
        .entry(day_index)
        .or_insert(log);
    Ok(())
}

/// Parses one WAL record (`{"host":..,"day_index":..,"states":".."}`)
/// into the recovery pool.
fn pool_wal_record(payload: &[u8], step: u32, pool: &mut Pool) -> Result<(), ()> {
    let text = std::str::from_utf8(payload).map_err(|_| ())?;
    let record = JsonSlice::scan(text).ok_or(())?;
    let host = record.u64(Field::Host).map_err(|_| ())?;
    let day = record.u64(Field::DayIndex).map_err(|_| ())?;
    let states = record.str(Field::States).map_err(|_| ())?;
    pool_day(pool, host, day as usize, &states, step)
}

/// Parses one snapshot host frame
/// (`{"host":..,"days":[{"i":..,"s":".."},..]}`) into the recovery pool.
fn pool_snapshot_host(payload: &[u8], step: u32, pool: &mut Pool) -> Result<(), ()> {
    let text = std::str::from_utf8(payload).map_err(|_| ())?;
    let frame = JsonSlice::scan(text).ok_or(())?;
    let host = frame.u64(Field::Host).map_err(|_| ())?;
    for day in frame.array(Field::Days).map_err(|_| ())? {
        let day = day.map_err(|_| ())?;
        let idx = day.u64(Field::I).map_err(|_| ())?;
        let states = day.str(Field::S).map_err(|_| ())?;
        pool_day(pool, host, idx as usize, &states, step)?;
    }
    Ok(())
}

impl std::fmt::Debug for ShardedRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ShardedRegistry")
            .field("shards", &stats.shards)
            .field("hosts", &stats.hosts)
            .field("days", &stats.days)
            .finish()
    }
}

/// A held shard lock for several predicts against its hosts — see
/// [`ShardedRegistry::session`]. Dropping the session releases the lock.
pub struct ShardSession<'a> {
    registry: &'a ShardedRegistry,
    shard: usize,
    guard: MutexGuard<'a, Shard>,
}

impl ShardSession<'_> {
    /// Several predicts for one `(host, day_type, window)` under the held
    /// lock, one scalar predict per init: each slot is
    /// [`ShardedRegistry::predict`]'s answer for its init, value or error.
    /// A slot that solves memoizes both operational inits, so the other
    /// slots read the memo.
    pub fn predict_many(
        &mut self,
        host: u64,
        day_type: DayType,
        window: TimeWindow,
        inits: &[State],
    ) -> Vec<Result<f64, RegistryError>> {
        debug_assert_eq!(self.registry.shard_index(host), self.shard);
        inits
            .iter()
            .map(|&init| {
                self.registry
                    .predict_locked(&mut self.guard, host, day_type, window, init)
            })
            .collect()
    }
}

impl std::fmt::Debug for ShardSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardSession")
            .field("shard", &self.shard)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{solve_memo_key, SolverPolicy};
    use fgcs_runtime::fault::FaultPlan;
    use fgcs_runtime::rng::{Rng, Xoshiro256};
    use State::*;

    fn config(shards: usize) -> RegistryConfig {
        RegistryConfig {
            shards,
            ..RegistryConfig::default()
        }
    }

    /// A unique temp data dir, removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let mut p = std::env::temp_dir();
            p.push(format!(
                "fgcs-registry-test-{}-{}-{tag}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_dir_all(&p);
            std::fs::create_dir_all(&p).expect("create temp dir");
            TempDir(p)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn durable_config(dir: &Path, shards: usize) -> RegistryConfig {
        RegistryConfig {
            shards,
            data_dir: Some(dir.to_path_buf()),
            fsync_every: 1,
            snapshot_every: 5,
            ..RegistryConfig::default()
        }
    }

    fn random_day(rng: &mut Xoshiro256, len: usize) -> Vec<State> {
        const STATES: [State; 9] = [S1, S1, S1, S1, S2, S2, S3, S4, S5];
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let state = STATES[rng.range_usize(0, STATES.len())];
            let run = rng.range_usize(1, 60);
            for _ in 0..run.min(len - out.len()) {
                out.push(state);
            }
        }
        out
    }

    #[test]
    fn predict_matches_unsharded_predictor_bitwise() {
        let reg = ShardedRegistry::new(config(4));
        let mut rng = Xoshiro256::seed_from_u64(99);
        let mut oracle_history = HistoryStore::new();
        for day in 0..9 {
            let states = random_day(&mut rng, 14_400);
            oracle_history.push_day(DayLog::new(day, StateLog::new(6, states.clone())));
            reg.ingest_day(7, Some(day), states).unwrap();
        }
        let window = TimeWindow::from_hours(9.0, 2.0);
        let oracle = SmpPredictor::new(AvailabilityModel::default());
        for init in [S1, S2] {
            let want = oracle.predict(&oracle_history, DayType::Weekday, window, init);
            let got = reg.predict(7, DayType::Weekday, window, init);
            match (want, got) {
                (Ok(w), Ok(g)) => assert_eq!(w.to_bits(), g.to_bits()),
                (w, g) => panic!("divergence: oracle {w:?} registry {g:?}"),
            }
        }
    }

    #[test]
    fn sweep_matches_predict_tr_curve_bitwise() {
        let reg = ShardedRegistry::new(config(3));
        let mut rng = Xoshiro256::seed_from_u64(5);
        let mut oracle_history = HistoryStore::new();
        for day in 0..8 {
            let states = random_day(&mut rng, 14_400);
            oracle_history.push_day(DayLog::new(day, StateLog::new(6, states.clone())));
            reg.ingest_day(3, Some(day), states).unwrap();
        }
        let window = TimeWindow::from_hours(23.0, 2.0); // cross-midnight
        let oracle = SmpPredictor::new(AvailabilityModel::default());
        let want = oracle
            .predict_tr_curve(&oracle_history, DayType::Weekday, window)
            .unwrap();
        let got = reg.sweep(3, DayType::Weekday, window).unwrap();
        for init in [S1, S2] {
            let (w, g) = (want.curve(init).unwrap(), got.curve(init).unwrap());
            assert_eq!(w.len(), g.len());
            for (m, (w, g)) in w.iter().zip(g).enumerate() {
                assert_eq!(w.to_bits(), g.to_bits(), "{init} m {m}");
            }
        }
    }

    #[test]
    fn shard_count_does_not_change_answers() {
        let one = ShardedRegistry::new(config(1));
        let many = ShardedRegistry::new(config(7));
        let mut rng = Xoshiro256::seed_from_u64(17);
        let hosts: Vec<u64> = (0..20).collect();
        for day in 0..6 {
            for &h in &hosts {
                let states = random_day(&mut rng, 14_400);
                one.ingest_day(h, Some(day), states.clone()).unwrap();
                many.ingest_day(h, Some(day), states).unwrap();
            }
        }
        let window = TimeWindow::from_hours(8.0, 1.0);
        for &h in &hosts {
            let a = one.predict(h, DayType::Weekday, window, S1).unwrap();
            let b = many.predict(h, DayType::Weekday, window, S1).unwrap();
            assert_eq!(a.to_bits(), b.to_bits(), "host {h}");
        }
        assert_eq!(one.stats().days, many.stats().days);
    }

    #[test]
    fn auto_day_index_advances_per_host() {
        let reg = ShardedRegistry::new(config(2));
        let day = vec![S1; 14_400];
        assert_eq!(reg.ingest_day(1, None, day.clone()).unwrap().day_index, 0);
        assert_eq!(reg.ingest_day(1, None, day.clone()).unwrap().day_index, 1);
        // An explicit gap, then auto continues after it.
        assert_eq!(
            reg.ingest_day(1, Some(5), day.clone()).unwrap().day_index,
            5
        );
        assert_eq!(reg.ingest_day(1, None, day.clone()).unwrap().day_index, 6);
        // Other hosts have independent calendars.
        assert_eq!(reg.ingest_day(2, None, day).unwrap().day_index, 0);
        assert_eq!(reg.host_days(1), Some(4));
    }

    #[test]
    fn non_monotonic_and_empty_ingests_are_rejected() {
        let reg = ShardedRegistry::new(config(2));
        let day = vec![S1; 100];
        reg.ingest_day(1, Some(3), day.clone()).unwrap();
        assert!(matches!(
            reg.ingest_day(1, Some(3), day.clone()),
            Err(RegistryError::NonMonotonicDay {
                last: 3,
                offered: 3,
                ..
            })
        ));
        assert!(matches!(
            reg.ingest_day(1, Some(2), day),
            Err(RegistryError::NonMonotonicDay { .. })
        ));
        assert!(matches!(
            reg.ingest_day(1, None, Vec::new()),
            Err(RegistryError::EmptyDay { host: 1 })
        ));
    }

    #[test]
    fn unknown_host_and_failure_init_error() {
        let reg = ShardedRegistry::new(config(2));
        let window = TimeWindow::from_hours(8.0, 1.0);
        assert!(matches!(
            reg.predict(42, DayType::Weekday, window, S1),
            Err(RegistryError::UnknownHost(42))
        ));
        reg.ingest_day(42, None, vec![S1; 14_400]).unwrap();
        assert!(matches!(
            reg.predict(42, DayType::Weekday, window, S3),
            Err(RegistryError::Core(CoreError::FailureInitialState(S3)))
        ));
    }

    #[test]
    fn estimator_budget_fallback_stays_bitwise() {
        // One estimator slot, three query windows: windows beyond the
        // budget take the full-scan path and must return the same bits.
        let cfg = RegistryConfig {
            max_estimators_per_host: 1,
            ..config(2)
        };
        let reg = ShardedRegistry::new(cfg);
        let mut rng = Xoshiro256::seed_from_u64(23);
        let mut oracle_history = HistoryStore::new();
        for day in 0..7 {
            let states = random_day(&mut rng, 14_400);
            oracle_history.push_day(DayLog::new(day, StateLog::new(6, states.clone())));
            reg.ingest_day(9, Some(day), states).unwrap();
        }
        let oracle = SmpPredictor::new(AvailabilityModel::default());
        for start in [6.0, 9.0, 13.0] {
            let window = TimeWindow::from_hours(start, 1.5);
            let want = oracle
                .predict(&oracle_history, DayType::Weekday, window, S1)
                .unwrap();
            let got = reg.predict(9, DayType::Weekday, window, S1).unwrap();
            assert_eq!(want.to_bits(), got.to_bits(), "window start {start}");
        }
    }

    #[test]
    fn queries_without_qualifying_history_error_like_the_oracle() {
        let reg = ShardedRegistry::new(config(2));
        // Only weekend days (indices 5, 6): weekday queries must fail.
        reg.ingest_day(4, Some(5), vec![S1; 14_400]).unwrap();
        reg.ingest_day(4, Some(6), vec![S1; 14_400]).unwrap();
        let window = TimeWindow::from_hours(8.0, 1.0);
        assert!(matches!(
            reg.predict(4, DayType::Weekday, window, S1),
            Err(RegistryError::Core(CoreError::EmptyHistory { .. }))
        ));
        assert!(reg.predict(4, DayType::Weekend, window, S1).is_ok());
    }

    #[test]
    fn stats_account_for_every_ingest() {
        let reg = ShardedRegistry::new(config(3));
        for h in 0..5u64 {
            for d in 0..4 {
                reg.ingest_day(h, Some(d), vec![S1; 50]).unwrap();
            }
        }
        let stats = reg.stats();
        assert_eq!(stats.shards, 3);
        assert_eq!(stats.hosts, 5);
        assert_eq!(stats.days, 20);
    }

    #[test]
    fn predict_many_matches_scalar_predicts_bitwise() {
        let reg = ShardedRegistry::new(config(3));
        // Fed the same days, a second registry answers the batch with a
        // cold solve memo: its values come from the curve solve, where
        // `reg`'s batch is served from the memo its scalar predicts
        // fill.
        let cold = ShardedRegistry::new(config(3));
        let mut rng = Xoshiro256::seed_from_u64(71);
        for day in 0..7 {
            let states = random_day(&mut rng, 14_400);
            reg.ingest_day(5, Some(day), states.clone()).unwrap();
            cold.ingest_day(5, Some(day), states).unwrap();
        }
        let window = TimeWindow::from_hours(10.0, 1.5);
        let inits = [S1, S2, S1, S3, S2];
        let scalars: Vec<_> = inits
            .iter()
            .map(|&init| reg.predict(5, DayType::Weekday, window, init))
            .collect();
        for (memo, r) in [("warm", &reg), ("cold", &cold)] {
            let mut s = r.session(r.shard_index(5));
            let batched = s.predict_many(5, DayType::Weekday, window, &inits);
            drop(s);
            for (i, (want, got)) in scalars.iter().zip(&batched).enumerate() {
                match (want, got) {
                    (Ok(w), Ok(g)) => {
                        assert_eq!(w.to_bits(), g.to_bits(), "{memo} slot {i}");
                    }
                    (Err(w), Err(g)) => assert_eq!(w, g, "{memo} slot {i}"),
                    (w, g) => panic!("{memo} slot {i} diverged: {w:?} vs {g:?}"),
                }
            }
        }
        // Unknown-host groups error per slot like scalar predicts do.
        let mut s = reg.session(reg.shard_index(404));
        let missing = s.predict_many(404, DayType::Weekday, window, &[S1, S3]);
        assert!(matches!(missing[0], Err(RegistryError::UnknownHost(404))));
        assert!(matches!(
            missing[1],
            Err(RegistryError::Core(CoreError::FailureInitialState(S3)))
        ));
    }

    #[test]
    fn one_predict_memoizes_both_operational_inits() {
        let reg = ShardedRegistry::new(config(3));
        let mut rng = Xoshiro256::seed_from_u64(61);
        let mut oracle_history = HistoryStore::new();
        for day in 0..6 {
            let states = random_day(&mut rng, 14_400);
            oracle_history.push_day(DayLog::new(day, StateLog::new(6, states.clone())));
            reg.ingest_day(11, Some(day), states).unwrap();
        }
        let window = TimeWindow::from_hours(14.0, 1.5);
        reg.predict(11, DayType::Weekday, window, S1).unwrap();
        let params = reg
            .lock(reg.shard_index(11))
            .qh
            .get_or_compute(&reg.predictor, 11, 6, DayType::Weekday, window, || {
                panic!("the predict cached its kernel")
            })
            .unwrap();
        let key = solve_memo_key(S2, SolverPolicy::Fast, window.steps(6));
        let want = SmpPredictor::new(AvailabilityModel::default())
            .predict(&oracle_history, DayType::Weekday, window, S2)
            .unwrap();
        assert_eq!(
            reg.dedup.memo_get(&params, key).map(f64::to_bits),
            Some(want.to_bits())
        );
    }

    #[test]
    fn identical_hosts_share_kernels_and_solves() {
        let reg = ShardedRegistry::new(config(4));
        let mut rng = Xoshiro256::seed_from_u64(13);
        let days: Vec<Vec<State>> = (0..5).map(|_| random_day(&mut rng, 14_400)).collect();
        // 6 hosts with identical histories, spread over shards.
        for host in 0..6u64 {
            for (d, day) in days.iter().enumerate() {
                reg.ingest_day(host, Some(d), day.clone()).unwrap();
            }
        }
        let window = TimeWindow::from_hours(9.0, 2.0);
        let first = reg.predict(0, DayType::Weekday, window, S1).unwrap();
        for host in 1..6u64 {
            let tr = reg.predict(host, DayType::Weekday, window, S1).unwrap();
            assert_eq!(first.to_bits(), tr.to_bits(), "host {host}");
        }
        let stats = reg.stats();
        assert_eq!(stats.kernel_dedup_entries, 1, "one availability class");
        assert_eq!(stats.kernel_dedup_lookups, 6);
        assert_eq!(stats.kernel_dedup_hits, 5, "five hosts shared the first");
    }

    /// The sweep/predict fingerprint recovery must reproduce bitwise.
    /// The window fits inside the short (720-sample, 1.2 h) test days.
    fn fingerprint(reg: &ShardedRegistry, hosts: &[u64]) -> Vec<u64> {
        let window = TimeWindow::from_hours(0.25, 0.5);
        let mut bits = Vec::new();
        for &h in hosts {
            for init in [S1, S2] {
                match reg.predict(h, DayType::Weekday, window, init) {
                    Ok(tr) => bits.push(tr.to_bits()),
                    Err(_) => bits.push(u64::MAX),
                }
            }
        }
        bits
    }

    #[test]
    fn durable_registry_recovers_bit_identical_state() {
        let dir = TempDir::new("recover");
        let mut rng = Xoshiro256::seed_from_u64(41);
        let hosts: Vec<u64> = (0..12).collect();
        let oracle = ShardedRegistry::new(config(4));
        {
            let reg = ShardedRegistry::open(durable_config(dir.path(), 4)).unwrap();
            for day in 0..5 {
                for &h in &hosts {
                    let states = random_day(&mut rng, 1_440);
                    reg.ingest_day(h, Some(day), states.clone()).unwrap();
                    oracle.ingest_day(h, Some(day), states).unwrap();
                }
            }
            // Dropped without sync_all/snapshot_all: recovery must come
            // from the WAL + whatever snapshots the cadence produced.
        }
        let back = ShardedRegistry::open(durable_config(dir.path(), 4)).unwrap();
        assert_eq!(back.stats().days, 60);
        assert_eq!(fingerprint(&back, &hosts), fingerprint(&oracle, &hosts));
    }

    #[test]
    fn recovery_is_shard_count_agnostic() {
        let dir = TempDir::new("reshard");
        let mut rng = Xoshiro256::seed_from_u64(43);
        let hosts: Vec<u64> = (0..10).collect();
        let oracle = ShardedRegistry::new(config(1));
        {
            let reg = ShardedRegistry::open(durable_config(dir.path(), 2)).unwrap();
            for day in 0..4 {
                for &h in &hosts {
                    let states = random_day(&mut rng, 1_440);
                    reg.ingest_day(h, Some(day), states.clone()).unwrap();
                    oracle.ingest_day(h, Some(day), states).unwrap();
                }
            }
        }
        // Recover under a different shard count, ingest more, recover
        // again under a third count: the data must survive re-routing.
        {
            let reg = ShardedRegistry::open(durable_config(dir.path(), 7)).unwrap();
            assert_eq!(reg.stats().days, 40);
            for &h in &hosts {
                let states = random_day(&mut rng, 1_440);
                reg.ingest_day(h, Some(4), states.clone()).unwrap();
                oracle.ingest_day(h, Some(4), states).unwrap();
            }
        }
        let back = ShardedRegistry::open(durable_config(dir.path(), 3)).unwrap();
        assert_eq!(back.stats().days, 50);
        assert_eq!(fingerprint(&back, &hosts), fingerprint(&oracle, &hosts));
    }

    #[test]
    fn recovery_survives_missing_snapshots() {
        let dir = TempDir::new("nosnap");
        let mut rng = Xoshiro256::seed_from_u64(47);
        let hosts: Vec<u64> = (0..6).collect();
        let oracle = ShardedRegistry::new(config(4));
        {
            let reg = ShardedRegistry::open(durable_config(dir.path(), 4)).unwrap();
            for day in 0..5 {
                for &h in &hosts {
                    let states = random_day(&mut rng, 1_440);
                    reg.ingest_day(h, Some(day), states.clone()).unwrap();
                    oracle.ingest_day(h, Some(day), states).unwrap();
                }
            }
        }
        // Delete every snapshot: recovery must come from the WAL alone.
        for entry in std::fs::read_dir(dir.path()).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "snap") {
                std::fs::remove_file(path).unwrap();
            }
        }
        let back = ShardedRegistry::open(durable_config(dir.path(), 4)).unwrap();
        assert_eq!(back.stats().days, 30);
        assert_eq!(fingerprint(&back, &hosts), fingerprint(&oracle, &hosts));
    }

    #[test]
    fn recovery_truncates_a_hand_torn_wal_tail() {
        let dir = TempDir::new("torn-tail");
        let host = 3u64;
        {
            let reg = ShardedRegistry::open(durable_config(dir.path(), 1)).unwrap();
            for day in 0..4 {
                reg.ingest_day(host, Some(day), vec![S1; 300]).unwrap();
            }
        }
        // Remove the snapshot (cadence wrote one at 5 records? no — 4 <
        // 5, so only the WAL exists) and chop bytes off the WAL tail:
        // the last day must be dropped cleanly.
        let wal_path = dir.path().join("shard-0.wal");
        let len = std::fs::metadata(&wal_path).unwrap().len();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&wal_path)
            .unwrap();
        f.set_len(len - 10).unwrap();
        drop(f);
        let back = ShardedRegistry::open(durable_config(dir.path(), 1)).unwrap();
        assert_eq!(back.host_days(host), Some(3), "torn day dropped");
        // And the truncated file accepts new appends cleanly.
        back.ingest_day(host, None, vec![S1; 300]).unwrap();
        drop(back);
        let again = ShardedRegistry::open(durable_config(dir.path(), 1)).unwrap();
        assert_eq!(again.host_days(host), Some(4));
    }

    #[test]
    fn recovery_from_a_wal_frame_damaged_mid_file() {
        // Pins today's rule for damage before the tail: the first bad
        // frame ends the log, so every later frame is lost unless a
        // snapshot still holds its day.
        let host = 3u64;
        let days: Vec<Vec<State>> = {
            let mut rng = Xoshiro256::seed_from_u64(53);
            (0..4).map(|_| random_day(&mut rng, 300)).collect()
        };
        let frame_len = |wal: &[u8], at: usize| {
            8 + u32::from_le_bytes(wal[at..at + 4].try_into().unwrap()) as usize
        };
        for snapshot_after_day_3 in [false, true] {
            let dir = TempDir::new(&format!("mid-file-{snapshot_after_day_3}"));
            let cfg = || RegistryConfig {
                snapshot_every: 0,
                ..durable_config(dir.path(), 1)
            };
            {
                let reg = ShardedRegistry::open(cfg()).unwrap();
                for (day, states) in days.iter().enumerate() {
                    reg.ingest_day(host, Some(day), states.clone()).unwrap();
                }
                if snapshot_after_day_3 {
                    reg.snapshot_all().unwrap();
                }
            }
            let snap_path = dir.path().join("shard-0.snap");
            assert_eq!(snap_path.exists(), snapshot_after_day_3);
            // Flip one payload byte of the second frame.
            let wal_path = dir.path().join("shard-0.wal");
            let mut wal = std::fs::read(&wal_path).unwrap();
            let frame0_end = frame_len(&wal, 0);
            wal[frame0_end + 8 + 5] ^= 0x01;
            std::fs::write(&wal_path, &wal).unwrap();

            let back = ShardedRegistry::open(cfg()).unwrap();
            let file_len = || std::fs::metadata(&wal_path).unwrap().len() as usize;
            assert_eq!(file_len(), frame0_end, "the log is cut after frame 0");
            if snapshot_after_day_3 {
                assert_eq!(
                    back.host_days(host),
                    Some(4),
                    "the snapshot keeps every day"
                );
                let oracle = ShardedRegistry::new(config(1));
                for (day, states) in days.iter().enumerate() {
                    oracle.ingest_day(host, Some(day), states.clone()).unwrap();
                }
                assert_eq!(fingerprint(&back, &[host]), fingerprint(&oracle, &[host]));
                continue;
            }
            assert_eq!(back.host_days(host), Some(1), "only day 0 survives");
            back.ingest_day(host, Some(1), days[1].clone()).unwrap();
            let appended = file_len();
            assert_eq!(
                appended,
                frame0_end + frame_len(&std::fs::read(&wal_path).unwrap(), frame0_end)
            );
            drop(back);
            let again = ShardedRegistry::open(cfg()).unwrap();
            assert_eq!(
                again.host_days(host),
                Some(2),
                "the append after the cut survives"
            );
            assert_eq!(file_len(), appended);
        }
    }

    #[test]
    fn a_crc_valid_record_that_does_not_decode_ends_the_replay() {
        // A bad digit, and run text that breaks the grammar, are the same
        // damage: the days before the record recover, none after it.
        let host = 3u64;
        for bad in ["1x2", "1(0)", "1(", "", "2(4294967296)"] {
            let dir = TempDir::new("undecodable");
            let mut wal_bytes = Vec::new();
            for (day, states) in [(0, "1(9)2"), (1, bad), (2, "1(10)")] {
                let payload = format!(r#"{{"host":{host},"day_index":{day},"states":"{states}"}}"#);
                wal::frame_into(&mut wal_bytes, payload.as_bytes()).unwrap();
            }
            std::fs::write(dir.path().join("shard-0.wal"), &wal_bytes).unwrap();
            let back = ShardedRegistry::open(durable_config(dir.path(), 1)).unwrap();
            assert_eq!(
                back.host_days(host),
                Some(1),
                "{bad:?}: only day 0 recovers"
            );
            let oracle = ShardedRegistry::new(config(1));
            let mut day = vec![S1; 9];
            day.push(S2);
            oracle.ingest_day(host, Some(0), day).unwrap();
            assert_eq!(
                fingerprint(&back, &[host]),
                fingerprint(&oracle, &[host]),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn appends_after_an_undecodable_record_survive_the_next_restart() {
        // Recovery cuts the file at the first record that does not
        // decode, as at a bad CRC, so a day acked after the restart is
        // not written behind a record the next replay stops at.
        let host = 3u64;
        let dir = TempDir::new("undecodable-reopen");
        let wal_path = dir.path().join("shard-0.wal");
        let mut wal_bytes = Vec::new();
        for (day, states) in [(0, "1(9)2"), (1, "1x2")] {
            let payload = format!(r#"{{"host":{host},"day_index":{day},"states":"{states}"}}"#);
            wal::frame_into(&mut wal_bytes, payload.as_bytes()).unwrap();
        }
        let frame0_end =
            wal::HEADER_BYTES + u32::from_le_bytes(wal_bytes[..4].try_into().unwrap()) as usize;
        std::fs::write(&wal_path, &wal_bytes).unwrap();
        let cfg = || RegistryConfig {
            fsync_every: 1,
            snapshot_every: 0,
            ..durable_config(dir.path(), 1)
        };
        let day5 = vec![S2; 7];
        {
            let reg = ShardedRegistry::open(cfg()).unwrap();
            assert_eq!(reg.host_days(host), Some(1));
            reg.ingest_day(host, Some(5), day5.clone()).unwrap();
            reg.sync_all().unwrap();
        }
        let back = ShardedRegistry::open(cfg()).unwrap();
        assert_eq!(
            back.host_days(host),
            Some(2),
            "the day acked after the cut survives"
        );
        let file = std::fs::read(&wal_path).unwrap();
        assert_eq!(
            file[..frame0_end],
            wal_bytes[..frame0_end],
            "the log is cut after frame 0"
        );
        let after = wal::scan_frames(&file[frame0_end..]);
        assert_eq!((after.records.len(), after.damage), (1, None));
        assert!(std::str::from_utf8(&after.records[0])
            .unwrap()
            .contains(r#""day_index":5"#));
        let oracle = ShardedRegistry::new(config(1));
        let mut day0 = vec![S1; 9];
        day0.push(S2);
        oracle.ingest_day(host, Some(0), day0).unwrap();
        oracle.ingest_day(host, Some(5), day5).unwrap();
        assert_eq!(fingerprint(&back, &[host]), fingerprint(&oracle, &[host]));
    }

    #[test]
    fn crash_points_recover_the_acked_prefix_bit_identically() {
        // The tentpole property: for seeded crash points (torn WAL
        // appends injected between append and fsync, plus lost
        // snapshots), recovery yields predictions bit-identical to an
        // uninterrupted run over exactly the durably-acked prefix.
        for seed in [1u64, 2, 3, 4, 5, 6, 7, 8] {
            let dir = TempDir::new(&format!("crash-{seed}"));
            let plan = FaultPlan {
                wal_torn_write_rate: 0.03,
                wal_snapshot_loss_rate: 0.5,
                ..FaultPlan::none(seed)
            };
            let cfg = RegistryConfig {
                wal_faults: Some(FaultInjector::new(plan)),
                ..durable_config(dir.path(), 3)
            };
            let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xFEED);
            let reg = ShardedRegistry::open(cfg).unwrap();
            // Stream days for a few hosts until an injected torn write
            // "crashes" the process; remember every acked ingest.
            let mut acked: Vec<(u64, usize, Vec<State>)> = Vec::new();
            'stream: for day in 0..40usize {
                for h in 0..4u64 {
                    let states = random_day(&mut rng, 720);
                    match reg.ingest_day(h, Some(day), states.clone()) {
                        Ok(_) => acked.push((h, day, states)),
                        Err(RegistryError::Io(_)) => break 'stream,
                        Err(e) => panic!("unexpected ingest error: {e}"),
                    }
                }
            }
            // Hard kill: drop without sync/snapshot/graceful shutdown.
            drop(reg);
            let back = ShardedRegistry::open(durable_config(dir.path(), 3)).unwrap();
            // Every acked ingest survives (fsync_every = 1 ⇒ ack is
            // durable), and nothing unacked appears.
            let oracle = ShardedRegistry::new(config(3));
            for (h, day, states) in &acked {
                oracle.ingest_day(*h, Some(*day), states.clone()).unwrap();
            }
            assert_eq!(
                back.stats().days,
                acked.len(),
                "seed {seed}: recovered day count != acked count"
            );
            let hosts = [0u64, 1, 2, 3];
            assert_eq!(
                fingerprint(&back, &hosts),
                fingerprint(&oracle, &hosts),
                "seed {seed}: recovered predictions diverged from replayed oracle"
            );
        }
    }

    #[test]
    fn wal_failure_leaves_memory_unchanged() {
        // Write-ahead ordering: a torn append must not apply the day.
        let dir = TempDir::new("ordering");
        let plan = FaultPlan {
            wal_torn_write_rate: 1.0,
            ..FaultPlan::none(9)
        };
        let cfg = RegistryConfig {
            wal_faults: Some(FaultInjector::new(plan)),
            ..durable_config(dir.path(), 1)
        };
        let reg = ShardedRegistry::open(cfg).unwrap();
        assert!(matches!(
            reg.ingest_day(1, Some(0), vec![S1; 100]),
            Err(RegistryError::Io(_))
        ));
        assert_eq!(reg.host_days(1), None, "failed WAL append must not apply");
        assert_eq!(reg.stats().days, 0);
    }

    #[test]
    fn poisoned_shard_recovers_and_is_flagged() {
        let reg = Arc::new(ShardedRegistry::new(config(2)));
        for d in 0..3 {
            reg.ingest_day(0, Some(d), vec![S1; 14_400]).unwrap();
        }
        let shard = reg.shard_index(0);
        assert!(!reg.shard_poisoned(shard));
        // Poison the shard mutex by panicking while holding its session.
        let clone = Arc::clone(&reg);
        let _ = std::thread::spawn(move || {
            let _session = clone.session(shard);
            panic!("deliberate test panic while holding the shard lock");
        })
        .join();
        // The shard still serves (lock recovery), and is flagged sticky.
        let window = TimeWindow::from_hours(9.0, 2.0);
        let tr = reg.predict(0, DayType::Weekday, window, S1).unwrap();
        assert_eq!(tr.to_bits(), 1.0f64.to_bits());
        assert!(reg.shard_poisoned(shard));
        assert_eq!(reg.poisoned_shards(), 1);
        assert_eq!(reg.stats().poisoned_shards, 1);
    }

    #[test]
    fn stats_report_wal_and_snapshot_lag() {
        let dir = TempDir::new("stats");
        let cfg = RegistryConfig {
            fsync_every: 4,
            snapshot_every: 0,
            ..durable_config(dir.path(), 2)
        };
        let reg = ShardedRegistry::open(cfg).unwrap();
        for d in 0..3 {
            reg.ingest_day(1, Some(d), vec![S1; 100]).unwrap();
        }
        let stats = reg.stats();
        assert!(stats.durable);
        assert_eq!(stats.wal_records, 3);
        assert!(stats.wal_synced_records < 3, "cadence 4 not yet reached");
        assert_eq!(stats.snapshot_lag, 3);
        reg.sync_all().unwrap();
        assert_eq!(reg.stats().wal_synced_records, 3);
        reg.snapshot_all().unwrap();
        let after = reg.stats();
        assert_eq!(after.snapshot_lag, 0);
        assert_eq!(after.snapshots_written, 2, "one per shard");
    }

    #[test]
    fn concurrent_mixed_ingest_query_is_safe_and_consistent() {
        let reg = ShardedRegistry::new(config(4));
        let window = TimeWindow::from_hours(8.0, 1.0);
        // Warm every host with enough weekday history to answer queries.
        for h in 0..8u64 {
            for d in 0..3 {
                reg.ingest_day(h, Some(d), vec![S1; 14_400]).unwrap();
            }
        }
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let reg = &reg;
                scope.spawn(move || {
                    let mut rng = Xoshiro256::seed_from_u64(t);
                    for i in 0..50 {
                        let host = rng.range_usize(0, 8) as u64;
                        if i % 5 == 0 {
                            // Ingest with auto index; concurrent appends to
                            // the same host may race on the index, so accept
                            // the (ordered) rejection too.
                            let _ = reg.ingest_day(host, None, vec![S1; 14_400]);
                        } else {
                            let tr = reg.predict(host, DayType::Weekday, window, S1).unwrap();
                            assert_eq!(tr.to_bits(), 1.0f64.to_bits());
                        }
                    }
                });
            }
        });
        assert_eq!(reg.stats().hosts, 8);
    }
}
