//! The zero-allocation contract of the serve hot path.
//!
//! A counting `#[global_allocator]` wraps the system allocator (same
//! harness as `alloc_free.rs`). After one warm request has sized the
//! pooled reply buffer, populated the shard's kernel cache, and seeded the
//! cross-host solve memo, a repeated `predict` request handled through
//! [`Server::handle_line_into`] must not touch the allocator at all: the
//! request line is scanned once, in place ([`JsonSlice`]), the answer
//! comes from the per-kernel solve memo, and the reply is formatted into
//! the pooled [`JsonWriter`]. `ping` gets the same guarantee for free, and so does a
//! `batch` of warm predicts, whose ops take the same path one by one. A
//! warm `sweep` allocates exactly its TR curve's two vectors: its reply
//! document is written straight into the pooled buffer. A warm durable
//! `ingest` allocates, but never a buffer the size of its samples: the
//! digits are cut straight into runs, and the WAL record is the runs'
//! text.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fgcs::serve::{ServeConfig, Server};
use fgcs_runtime::json::JsonWriter;

std::thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// System allocator wrapper that counts every allocating entry point made
/// from a thread whose `TRACKING` flag is set, and keeps the largest size
/// asked for.
struct CountingAlloc;

fn note_alloc(size: usize) {
    // try_with: allocations during thread teardown must not panic.
    let _ = TRACKING.try_with(|t| {
        if t.get() {
            let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
            let _ = THREAD_LARGEST.try_with(|c| c.set(c.get().max(size)));
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
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwards pointer, layout, and size to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
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
/// `(f(), allocations made by this thread inside f)`.
fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    THREAD_ALLOCS.with(|c| c.set(0));
    THREAD_LARGEST.with(|c| c.set(0));
    TRACKING.with(|t| t.set(true));
    let out = f();
    TRACKING.with(|t| t.set(false));
    let n = THREAD_ALLOCS.with(|c| c.get());
    (out, n)
}

/// The largest allocation, in bytes, the last [`count_allocations`] saw.
fn largest_allocation() -> usize {
    THREAD_LARGEST.with(|c| c.get())
}

/// One 14 400-sample day of mixed states, as the wire's digits.
fn day_digits() -> String {
    (0..14_400)
        .map(|i| match i % 97 {
            0..=69 => '1',
            70..=89 => '2',
            _ => '1',
        })
        .collect()
}

/// A server with a few days of mixed-state history on one host.
fn warm_server() -> Server {
    let s = Server::new(&ServeConfig::default());
    let day = day_digits();
    for d in 0..4 {
        let req =
            format!("{{\"op\":\"ingest\",\"host\":9,\"day_index\":{d},\"states\":\"{day}\"}}");
        let reply = s.handle_line(&req);
        assert!(reply.line.contains("\"ok\":true"), "{}", reply.line);
    }
    s
}

#[test]
fn warm_predict_requests_do_not_allocate() {
    let s = warm_server();
    let req = r#"{"op":"predict","host":9,"start":9.0,"hours":2.0}"#;
    let mut out = JsonWriter::new();

    // Warm-up: sizes the reply buffer, fills the shard's kernel cache,
    // seeds the solve memo, and performs any one-time lazy work.
    assert!(!s.handle_line_into(req, &mut out));
    let want = out.as_str().to_string();
    assert!(want.contains("\"tr\":"), "{want}");

    let ((), allocs) = count_allocations(|| {
        for _ in 0..100 {
            out.clear();
            let shutdown = s.handle_line_into(req, &mut out);
            assert!(!shutdown);
            assert_eq!(out.as_str(), want);
        }
    });
    assert_eq!(
        allocs, 0,
        "warm predict requests on the serve hot path must not allocate"
    );
}

#[test]
fn warm_batch_of_predicts_does_not_allocate() {
    // Four 2-h windows, S1 and S2 for each: every op takes the single-line
    // predict path and writes its reply straight into the pooled buffer.
    let ops: Vec<String> = [6, 9, 12, 15]
        .iter()
        .flat_map(|start| {
            ["S1", "S2"].map(|init| {
                format!(
                    "{{\"op\":\"predict\",\"host\":9,\"start\":{start}.0,\"hours\":2.0,\"init\":\"{init}\"}}"
                )
            })
        })
        .collect();
    let req = format!("{{\"op\":\"batch\",\"ops\":[{}]}}", ops.join(","));
    let s = warm_server();
    let mut out = JsonWriter::new();
    assert!(!s.handle_line_into(&req, &mut out));
    let want = out.as_str().to_string();
    assert_eq!(want.matches("\"tr\":").count(), 8, "{want}");

    let ((), allocs) = count_allocations(|| {
        for _ in 0..100 {
            out.clear();
            let shutdown = s.handle_line_into(&req, &mut out);
            assert!(!shutdown);
            assert_eq!(out.as_str(), want);
        }
    });
    assert_eq!(
        allocs, 0,
        "warm batches of cached predicts must not allocate"
    );
}

#[test]
fn warm_sweep_allocates_only_its_curve() {
    // The registry answers a sweep with a fresh `TrCurve` (one vector per
    // operational initial state); the decode and the 12-point reply
    // document allocate nothing.
    let s = warm_server();
    let req = r#"{"op":"sweep","host":9,"start":9.0,"hours":2.0,"day_type":"weekday","init":"S1","points":12}"#;
    let mut out = JsonWriter::new();
    assert!(!s.handle_line_into(req, &mut out));
    let want = out.as_str().to_string();
    assert_eq!(want.matches("\"tr\":").count(), 12, "{want}");

    let ((), allocs) = count_allocations(|| {
        for _ in 0..100 {
            out.clear();
            assert!(!s.handle_line_into(req, &mut out));
            assert_eq!(out.as_str(), want);
        }
    });
    assert_eq!(
        allocs, 200,
        "a warm sweep allocates its curve's two vectors and nothing else"
    );
}

#[test]
fn warm_ping_requests_do_not_allocate() {
    let s = warm_server();
    let mut out = JsonWriter::new();
    assert!(!s.handle_line_into(r#"{"op":"ping"}"#, &mut out));

    let ((), allocs) = count_allocations(|| {
        for _ in 0..100 {
            out.clear();
            let shutdown = s.handle_line_into(r#"{"op":"ping"}"#, &mut out);
            assert!(!shutdown);
            assert_eq!(out.as_str(), "{\"ok\":true,\"op\":\"ping\"}\n");
        }
    });
    assert_eq!(allocs, 0, "warm ping requests must not allocate");
}

#[test]
fn warm_error_replies_do_not_allocate_for_borrowed_errors() {
    // Field-shape errors (`SliceError`) render straight into the pooled
    // buffer — the error path for malformed-but-scannable requests is
    // allocation-free too.
    let s = warm_server();
    let req = r#"{"op":"predict","host":9}"#; // missing `start`
    let mut out = JsonWriter::new();
    assert!(!s.handle_line_into(req, &mut out));
    assert_eq!(
        out.as_str(),
        "{\"ok\":false,\"error\":\"json error: missing field `start`\"}\n"
    );

    let ((), allocs) = count_allocations(|| {
        for _ in 0..100 {
            out.clear();
            let _ = s.handle_line_into(req, &mut out);
        }
    });
    assert_eq!(allocs, 0, "borrowed field errors must not allocate");
}

#[test]
fn warm_durable_ingest_allocates_no_buffer_the_size_of_its_day() {
    let dir = std::env::temp_dir().join(format!("fgcs-serve-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let s = Server::new(&ServeConfig {
        data_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let day = day_digits();
    let req = format!("{{\"op\":\"ingest\",\"host\":9,\"states\":\"{day}\"}}");
    let mut out = JsonWriter::new();
    // Warm-up: sizes the reply buffer, the shard's WAL record buffer and
    // the writer's frame buffer.
    for _ in 0..4 {
        out.clear();
        assert!(!s.handle_line_into(&req, &mut out));
        assert!(out.as_str().starts_with("{\"ok\":true"), "{}", out.as_str());
    }

    let ((), allocs) = count_allocations(|| {
        for _ in 0..8 {
            out.clear();
            assert!(!s.handle_line_into(&req, &mut out));
            assert!(out.as_str().starts_with("{\"ok\":true"), "{}", out.as_str());
        }
    });
    let largest = largest_allocation();
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(allocs > 0, "each ingest stores its day's runs");
    assert!(
        largest < day.len(),
        "a warm ingest allocated {largest} bytes at once, as much as its {} samples",
        day.len()
    );
}
