//! The zero-allocation steady-state contract of the fast solver path, and
//! the memory bound of kernel estimation.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after one
//! warm solve has sized the [`SolveScratch`] arena (and lazily registered
//! any metrics instruments), repeated `temporal_reliability_with` queries
//! must not touch the allocator at all. This is the property that makes
//! the scheduler's steady-state polling loop heap-quiet, and it is the
//! acceptance criterion the scratch-arena refactor was built around.
//!
//! The allocator also counts requested and freed bytes, which pins the
//! history's memory to its sojourn runs: a stored day holds and requests
//! bytes per run, never per sample; estimation costs the same bytes at any
//! horizon past the longest sojourn, and a window costs the same bytes
//! whether it spans one hour or ten, since no window is copied.
//!
//! Counting is per thread, gated by a thread-local flag, so the harness
//! can run these tests in parallel without one test's setup allocations
//! bleeding into another's measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fgcs::core::smp::{FastSolver, IncrementalEstimator, SmpParams, SolveScratch};
use fgcs::core::{
    AvailabilityModel, DayLog, DayType, HistoryStore, SmpPredictor, State, StateLog, TimeWindow,
};

std::thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
    static THREAD_FREED: Cell<u64> = const { Cell::new(0) };
}

/// System allocator wrapper that counts every allocating entry point, the
/// bytes each one requests and the bytes given back, made from a thread
/// whose `TRACKING` flag is set.
struct CountingAlloc;

fn note_alloc(bytes: usize) {
    // try_with: allocations during thread teardown must not panic.
    let _ = TRACKING.try_with(|t| {
        if t.get() {
            let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
            let _ = THREAD_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
        }
    });
}

fn note_free(bytes: usize) {
    let _ = TRACKING.try_with(|t| {
        if t.get() {
            let _ = THREAD_FREED.try_with(|c| c.set(c.get() + bytes as u64));
        }
    });
}

// SAFETY: a pure pass-through to `System` — the counting hook touches
// only thread-local `Cell`s and allocates nothing, so every GlobalAlloc
// contract obligation is inherited unchanged from the system allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards the caller's layout to `System.alloc` verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    // SAFETY: forwards the caller's pointer/layout pair to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwards pointer, layout, and size to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_free(layout.size());
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: forwards the caller's layout to `System.alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with this thread's allocation tracking enabled and returns
/// `(f(), allocations made by this thread inside f, bytes they requested)`.
/// A `realloc` counts as one allocation of its new size.
fn measure_allocations<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (out, n, bytes, _) = measure_heap(f);
    (out, n, bytes)
}

/// [`measure_allocations`] plus the bytes `f` gave back (a `realloc` gives
/// back its old size).
fn measure_heap<T>(f: impl FnOnce() -> T) -> (T, u64, u64, u64) {
    THREAD_ALLOCS.with(|c| c.set(0));
    THREAD_BYTES.with(|c| c.set(0));
    THREAD_FREED.with(|c| c.set(0));
    TRACKING.with(|t| t.set(true));
    let out = f();
    TRACKING.with(|t| t.set(false));
    let n = THREAD_ALLOCS.with(|c| c.get());
    let bytes = THREAD_BYTES.with(|c| c.get());
    let freed = THREAD_FREED.with(|c| c.get());
    (out, n, bytes, freed)
}

/// Runs `f` with this thread's allocation tracking enabled and returns
/// `(f(), allocations made by this thread inside f)`.
fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, n, _) = measure_allocations(f);
    (out, n)
}

/// A nontrivial estimated kernel: S1/S2 churn with failure leaks at
/// several holding times, so every solve exercises real event lists.
fn busy_params(horizon: usize) -> SmpParams {
    let day: Vec<State> = (0..=horizon + 400)
        .map(|i| match i % 71 {
            0..=29 => State::S1,
            30..=49 => State::S2,
            50..=54 => State::S3,
            55..=62 => State::S1,
            63..=66 => State::S4,
            _ => State::S5,
        })
        .collect();
    let windows: Vec<&[State]> = vec![&day];
    SmpParams::estimate(&windows, 6, horizon)
}

#[test]
fn warm_fast_solves_do_not_allocate() {
    let steps = 600;
    let params = busy_params(steps);
    let solver = FastSolver::new(&params);
    let mut scratch = SolveScratch::new();

    // Warm-up: sizes the arena and performs any one-time lazy work
    // (metrics instrument registration) outside the measured region.
    let warm = solver
        .temporal_reliability_with(&mut scratch, State::S1, steps)
        .unwrap();
    assert!((0.0..=1.0).contains(&warm));

    let (acc, allocs) = count_allocations(|| {
        let mut acc = 0.0;
        for i in 0..100usize {
            let init = if i % 2 == 0 { State::S1 } else { State::S2 };
            // Vary the horizon downwards so reuse across horizons is
            // covered; never above the warmed horizon, which would
            // legitimately grow the arena.
            let m = steps - (i % 7);
            acc += solver
                .temporal_reliability_with(&mut scratch, init, m)
                .unwrap();
        }
        acc
    });
    assert!(acc.is_finite());
    assert_eq!(allocs, 0, "warm steady-state fast solves must not allocate");
}

#[test]
fn interval_probabilities_with_is_also_allocation_free() {
    let steps = 300;
    let params = busy_params(steps);
    let solver = FastSolver::new(&params);
    let mut scratch = SolveScratch::new();
    solver
        .failure_probabilities_with(&mut scratch, steps)
        .unwrap();

    let ((), allocs) = count_allocations(|| {
        for _ in 0..50 {
            let failures = solver
                .failure_probabilities_with(&mut scratch, steps)
                .unwrap();
            assert!(failures.iter().all(|p| p.is_finite()));
        }
    });
    assert_eq!(
        allocs, 0,
        "warm failure-probability solves must not allocate"
    );
}

/// Windows of 1 201 samples (a 2-h window at d = 6 s) built from seeded
/// runs over all five states, every run — the censored tails included —
/// at most 200 steps long.
fn short_sojourn_windows() -> Vec<Vec<State>> {
    let mut seed = 0x2006_u64;
    let mut draw = |n: u64| {
        seed = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (seed >> 33) % n
    };
    (0..12)
        .map(|_| {
            let mut w: Vec<State> = Vec::with_capacity(1201);
            while w.len() < 1201 {
                // A new state each run, so runs never merge into longer
                // sojourns.
                let last = w.last().map_or(0, |s| s.index() + 1);
                let state = State::ALL[(last + draw(4) as usize) % 5];
                let run = (1 + draw(200) as usize).min(1201 - w.len());
                w.resize(w.len() + run, state);
            }
            w
        })
        .collect()
}

#[test]
fn estimate_memory_follows_runs_not_horizon() {
    let windows = short_sojourn_windows();
    let refs: Vec<&[State]> = windows.iter().map(Vec::as_slice).collect();
    let measure = |horizon: usize| {
        let (params, calls, bytes) = measure_allocations(|| SmpParams::estimate(&refs, 6, horizon));
        assert!(params.sojourn_counts()[0] > 0);
        (params, calls, bytes)
    };
    let (short, short_calls, short_bytes) = measure(200);
    let (long, long_calls, long_bytes) = measure(14_400);
    // Same runs, same sojourns within both horizons: the same kernel
    // events, so the same allocations, byte for byte.
    assert_eq!(short.q(State::S1, State::S3), long.q(State::S1, State::S3));
    assert_eq!(
        (long_calls, long_bytes),
        (short_calls, short_bytes),
        "estimation memory grew with the horizon (200 -> 14 400 steps)"
    );
}

/// A 14 400-sample day cut into `runs` runs of equal length (the last one
/// takes the remainder), cycling through the five states.
fn day_of_runs(runs: usize) -> Vec<State> {
    let len = 14_400 / runs;
    (0..14_400)
        .map(|i| State::ALL[(i / len).min(runs - 1) % 5])
        .collect()
}

#[test]
fn stored_day_memory_follows_runs_not_samples() {
    // Bytes a stored run may request while the day is cut (the run list
    // grows by doubling, then shrinks to fit) and may hold afterwards.
    const REQUESTED_PER_RUN: u64 = 48;
    const REQUESTED_BASE: u64 = 64;
    const HELD_PER_RUN: u64 = 8;
    for runs in [1usize, 55, 92, 400] {
        let day = day_of_runs(runs);
        let (log, _, requested) = measure_allocations(|| StateLog::new(6, day));
        assert_eq!((log.len(), log.runs().len()), (14_400, runs));
        assert!(
            requested <= REQUESTED_BASE + REQUESTED_PER_RUN * runs as u64,
            "storing a day of {runs} runs requested {requested} bytes"
        );
        // Dropping the log gives back exactly what it holds.
        let ((), _, _, held) = measure_heap(|| drop(log));
        assert!(
            held <= HELD_PER_RUN * runs as u64,
            "a stored day of {runs} runs holds {held} bytes"
        );
    }
}

/// Six days (Monday to Saturday) that are S1 but for the same few runs
/// around midnight: S2 00:10–00:15, then S2 23:40–23:50 and S3 23:50–23:55.
/// A window 23:30 + 1 h and one 19:00 + 10 h see the same runs, each
/// clipped to a different length.
fn midnight_history() -> HistoryStore {
    let at = |h: f64| (h * 600.0) as usize;
    let day: Vec<State> = (0..14_400)
        .map(|i| match i {
            _ if (at(0.0 + 10.0 / 60.0)..at(0.25)).contains(&i) => State::S2,
            _ if (at(23.0 + 40.0 / 60.0)..at(23.0 + 50.0 / 60.0)).contains(&i) => State::S2,
            _ if (at(23.0 + 50.0 / 60.0)..at(23.0 + 55.0 / 60.0)).contains(&i) => State::S3,
            _ => State::S1,
        })
        .collect();
    let mut history = HistoryStore::new();
    for index in 0..6 {
        history.push_day(DayLog::new(index, StateLog::new(6, day.clone())));
    }
    history
}

#[test]
fn window_estimation_memory_is_independent_of_window_length() {
    let history = midnight_history();
    let predictor = SmpPredictor::new(AvailabilityModel::default());
    let windows = [
        TimeWindow::from_hours(23.5, 1.0),
        TimeWindow::from_hours(19.0, 10.0),
    ];
    // Registers the estimator's metrics instruments outside the measured
    // calls.
    predictor
        .estimate_params(&history, DayType::Weekday, windows[0])
        .unwrap();
    let bytes = windows.map(|window| {
        let mut estimator = IncrementalEstimator::new(6, DayType::Weekday, window, None);
        let (folded, _, sync_bytes) = measure_allocations(|| estimator.sync(&history));
        assert_eq!(
            folded, 5,
            "every weekday window stitches into its successor"
        );
        let (params, _, scan_bytes) = measure_allocations(|| {
            predictor
                .estimate_params(&history, DayType::Weekday, window)
                .unwrap()
        });
        assert_eq!(Some(params), estimator.params());
        (sync_bytes, scan_bytes)
    });
    assert_eq!(
        bytes[0], bytes[1],
        "(sync, full scan) bytes for a 1-h vs a 10-h cross-midnight window"
    );
}
