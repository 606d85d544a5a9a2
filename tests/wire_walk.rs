//! How much of a request line the serve path walks, read from the JSON
//! reader's `runtime.json.walked_bytes` counter (one add per descent).
//!
//! A request is walked once: the scan that validates the line captures
//! every field the op reads, so no getter walks the line again. A `batch`
//! line is walked twice: once by its scan, and once op by op, each op
//! captured by the walk that finds its end in the `ops` array.
//!
//! The counter is process-wide, so this file holds one test: nothing else
//! in the process walks JSON while it measures.

use fgcs::runtime::json::JsonWriter;
use fgcs::runtime::metrics;
use fgcs::serve::{ServeConfig, Server};

/// Bytes the JSON reader walked while `server` answered `line`.
fn walked(server: &Server, line: &str, out: &mut JsonWriter) -> u64 {
    let counter = metrics::registry().counter("runtime.json.walked_bytes");
    let before = counter.get();
    out.clear();
    assert!(!server.handle_line_into(line, out));
    assert!(!out.as_str().contains("\"ok\":false"), "{}", out.as_str());
    counter.get() - before
}

/// A predict request line as the wire benchmark writes it.
fn query(op: &str, start: u32, init: &str) -> String {
    format!(
        "{{\"op\":\"{op}\",\"host\":17,\"start\":{start}.0,\"hours\":2.0,\
         \"day_type\":\"weekday\",\"init\":\"{init}\"}}"
    )
}

#[test]
fn requests_are_walked_once_and_batches_twice() {
    metrics::set_enabled(true);
    let server = Server::new(&ServeConfig::default());
    let mut out = JsonWriter::new();
    let digits: String = (0..14_400)
        .map(|i| if i % 97 < 80 { '1' } else { '2' })
        .collect();
    for day in 0..3 {
        let ingest = format!(
            "{{\"op\":\"ingest\",\"host\":17,\"day_index\":{day},\"states\":\"{digits}\"}}"
        );
        let bytes = walked(&server, &ingest, &mut out);
        assert_eq!(bytes, ingest.len() as u64, "ingest walked {bytes} bytes");
    }

    let predict = query("predict", 9, "S1");
    let sweep = format!(
        "{},\"points\":12}}",
        query("sweep", 9, "S2").trim_end_matches('}')
    );
    for line in [&predict, &sweep] {
        let bytes = walked(&server, line, &mut out);
        assert_eq!(bytes, line.len() as u64, "{line} walked {bytes} bytes");
    }

    let ops: Vec<String> = (0..8)
        .map(|i| {
            query(
                "predict",
                6 + i / 2 * 3,
                if i % 2 == 0 { "S1" } else { "S2" },
            )
        })
        .collect();
    let batch = format!("{{\"op\":\"batch\",\"ops\":[{}]}}", ops.join(","));
    let bytes = walked(&server, &batch, &mut out);
    let len = batch.len() as u64;
    assert!(
        len < bytes && bytes <= 2 * len,
        "an 8-op batch line of {len} bytes walked {bytes} bytes"
    );
}
