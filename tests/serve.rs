//! Integration tests of the streaming prediction service: trace → encoded
//! ingest stream → serve replies, checked against the offline predictor
//! and across shard counts.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

use fgcs::core::window::{DayType, TimeWindow};
use fgcs::prelude::*;
use fgcs::runtime::check::{check, ensure};
use fgcs::runtime::json::Json;
use fgcs::serve::{encode_states, ServeConfig, Server};

fn server_with_shards(shards: usize) -> Server {
    Server::new(&ServeConfig {
        shards,
        ..ServeConfig::default()
    })
}

/// The ingest request lines for a generated trace, exactly as `fgcs
/// encode` emits them.
fn ingest_stream(seed: u64, days: usize, host: u64) -> (HistoryStore, Vec<String>) {
    let model = AvailabilityModel::default();
    let trace = TraceGenerator::new(TraceConfig::lab_machine(seed)).generate_days(days);
    let history = trace.to_history(&model).expect("trace/model step match");
    let lines = history
        .days()
        .iter()
        .map(|day| {
            format!(
                "{{\"op\":\"ingest\",\"host\":{host},\"day_index\":{},\"states\":\"{}\"}}",
                day.day_index,
                encode_states(&day.log.states())
            )
        })
        .collect();
    (history, lines)
}

#[test]
fn streamed_history_predicts_identically_to_offline() {
    let (history, lines) = ingest_stream(42, 12, 9);
    let server = server_with_shards(8);
    for line in &lines {
        let reply = server.handle_line(line);
        assert!(reply.line.contains("\"ok\":true"), "{}", reply.line);
    }
    let window = TimeWindow::from_hours(9.0, 2.0);
    let offline = SmpPredictor::new(AvailabilityModel::default());
    for (day_type, flag) in [(DayType::Weekday, "weekday"), (DayType::Weekend, "weekend")] {
        for init in ["S1", "S2"] {
            let req = format!(
                "{{\"op\":\"predict\",\"host\":9,\"start\":9.0,\"hours\":2.0,\
                 \"day_type\":\"{flag}\",\"init\":\"{init}\"}}"
            );
            let reply = server.handle_line(&req);
            let json = Json::parse(&reply.line).expect("reply is JSON");
            let got: f64 = json.get("tr").expect("tr field");
            let want = offline
                .predict(
                    &history,
                    day_type,
                    window,
                    if init == "S1" { State::S1 } else { State::S2 },
                )
                .expect("offline predict");
            assert_eq!(want.to_bits(), got.to_bits(), "{day_type} {init}");
        }
    }
}

#[test]
fn shard_count_is_invisible_on_the_wire() {
    // The same request stream against a 1-shard and a 5-shard server must
    // produce byte-identical reply streams (shard routing is pure plumbing).
    let single = server_with_shards(1);
    let sharded = server_with_shards(5);
    let mut requests = Vec::new();
    for host in [3u64, 11, 12, 47] {
        let (_, lines) = ingest_stream(host, 8, host);
        requests.extend(lines);
    }
    for host in [3u64, 11, 12, 47] {
        requests.push(format!(
            "{{\"op\":\"predict\",\"host\":{host},\"start\":8.0,\"hours\":1.0}}"
        ));
        requests.push(format!(
            "{{\"op\":\"sweep\",\"host\":{host},\"start\":9.0,\"hours\":2.0,\"points\":8}}"
        ));
    }
    requests.push(r#"{"op":"stats"}"#.into());
    for req in &requests {
        let a = single.handle_line(req);
        let b = sharded.handle_line(req);
        if req.contains("\"op\":\"stats\"") {
            // stats legitimately reports the shard count; everything else
            // must agree bit for bit.
            let a = Json::parse(&a.line).expect("stats");
            let b = Json::parse(&b.line).expect("stats");
            assert_eq!(a.get::<u64>("shards").expect("shards"), 1);
            assert_eq!(b.get::<u64>("shards").expect("shards"), 5);
            for key in ["hosts", "days"] {
                assert_eq!(
                    a.get::<u64>(key).expect(key),
                    b.get::<u64>(key).expect(key),
                    "{key}"
                );
            }
        } else {
            assert_eq!(a.line, b.line, "request: {req}");
        }
    }
}

#[test]
fn property_random_streams_are_shard_invariant() {
    // Arbitrary interleavings of ingests and queries over random hosts:
    // every reply byte-identical between 1-shard and 7-shard servers.
    check("serve_shard_invariance", 15, |g| {
        let single = server_with_shards(1);
        let sharded = server_with_shards(7);
        let n_ops = g.usize_in(5, 40);
        let mut next_day = std::collections::HashMap::new();
        for _ in 0..n_ops {
            let host = g.usize_in(0, 6) as u64;
            let req = if g.bool_with(0.6) {
                let day = next_day.entry(host).or_insert(0usize);
                let len = *g.pick(&[100usize, 600, 14_400]);
                let digit = char::from(b'1' + g.usize_in(0, 5) as u8);
                let states: String = std::iter::repeat_n(digit, len).collect();
                let line = format!(
                    "{{\"op\":\"ingest\",\"host\":{host},\"day_index\":{day},\"states\":\"{states}\"}}"
                );
                *day += g.usize_in(1, 3);
                line
            } else {
                let start = *g.pick(&[0.0, 8.0, 9.5, 23.0]);
                let hours = *g.pick(&[0.5, 1.0, 2.0]);
                let day_type = *g.pick(&["weekday", "weekend"]);
                format!(
                    "{{\"op\":\"predict\",\"host\":{host},\"start\":{start},\
                     \"hours\":{hours},\"day_type\":\"{day_type}\"}}"
                )
            };
            let a = single.handle_line(&req);
            let b = sharded.handle_line(&req);
            ensure(
                a.line == b.line,
                format!("diverged on {req}: {} vs {}", a.line, b.line),
            )?;
            ensure(!a.shutdown, "non-shutdown op flagged shutdown")?;
        }
        Ok(())
    });
}

#[test]
fn tcp_concurrent_clients_share_one_registry() {
    let server = server_with_shards(4);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("addr");
    let (_, lines) = ingest_stream(7, 10, 1);
    std::thread::scope(|scope| {
        let serve = scope.spawn(|| server.serve_tcp(&listener));
        // Client A streams the history, then disconnects (the server only
        // finishes shutting down once every connection has drained).
        {
            let mut a = Client::connect(addr);
            for line in &lines {
                let reply = a.roundtrip(line);
                assert!(reply.contains("\"ok\":true"), "{reply}");
            }
        }
        // Client B (a separate connection) immediately sees it.
        let mut b = Client::connect(addr);
        let reply = b.roundtrip(r#"{"op":"predict","host":1,"start":9.0,"hours":1.0}"#);
        assert!(reply.contains("\"tr\":"), "{reply}");
        let stats = b.roundtrip(r#"{"op":"stats"}"#);
        assert!(stats.contains("\"days\":10"), "{stats}");
        let bye = b.roundtrip(r#"{"op":"shutdown"}"#);
        assert!(bye.contains("\"op\":\"shutdown\""), "{bye}");
        serve.join().expect("serve thread").expect("clean shutdown");
    });
}

#[test]
fn batch_reply_stream_matches_sequential_bytes() {
    // The same ops as one pipelined `batch` request and as individual
    // lines, against fresh identical servers: the reply streams must be
    // byte-identical (this is the wire contract the CI smoke stage also
    // enforces over TCP).
    let (_, lines3) = ingest_stream(3, 6, 3);
    let (_, lines8) = ingest_stream(8, 6, 8);
    let mut ops: Vec<String> = Vec::new();
    ops.extend(lines3);
    ops.extend(lines8);
    ops.push(r#"{"op":"ping"}"#.into());
    for host in [3u64, 8] {
        for init in ["S1", "S2"] {
            ops.push(format!(
                "{{\"op\":\"predict\",\"host\":{host},\"start\":9.0,\"hours\":2.0,\"init\":\"{init}\"}}"
            ));
        }
    }
    ops.push(r#"{"op":"sweep","host":3,"start":9.0,"hours":2.0,"points":5}"#.into());
    ops.push(r#"{"op":"predict","host":77,"start":9.0,"hours":2.0}"#.into());

    let sequential = server_with_shards(4);
    let seq_input = ops.join("\n") + "\n";
    let mut seq_out = Vec::new();
    sequential
        .serve_lines(seq_input.as_bytes(), &mut seq_out)
        .expect("sequential stream");

    let batched = server_with_shards(4);
    let batch_input = format!("{{\"op\":\"batch\",\"ops\":[{}]}}\n", ops.join(","));
    let mut batch_out = Vec::new();
    batched
        .serve_lines(batch_input.as_bytes(), &mut batch_out)
        .expect("batch stream");

    assert_eq!(
        seq_out.iter().filter(|&&b| b == b'\n').count(),
        ops.len(),
        "one reply line per op"
    );
    assert_eq!(seq_out, batch_out, "batch replies diverge from sequential");
}

#[test]
fn oversized_tcp_line_is_rejected_and_connection_survives() {
    // A 100 MB request line (way past the 8 MiB default cap) must not grow
    // the server's read buffer past the cap, must get a structured
    // `too_large` reply, and must leave the connection usable.
    let server = server_with_shards(2);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("addr");
    std::thread::scope(|scope| {
        let serve = scope.spawn(|| server.serve_tcp(&listener));
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        let chunk = vec![b'a'; 1 << 20];
        for _ in 0..100 {
            writer.write_all(&chunk).expect("send oversized body");
        }
        writer.write_all(b"\n").expect("terminate oversized line");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("recv");
        assert!(reply.contains("\"code\":\"too_large\""), "{reply}");

        // Same connection, next request: business as usual.
        let mut client = Client { reader, writer };
        let pong = client.roundtrip(r#"{"op":"ping"}"#);
        assert_eq!(pong, r#"{"ok":true,"op":"ping"}"#);
        let bye = client.roundtrip(r#"{"op":"shutdown"}"#);
        assert!(bye.contains("\"op\":\"shutdown\""), "{bye}");
        serve.join().expect("serve thread").expect("clean shutdown");
    });
}

#[test]
fn abrupt_disconnects_do_not_wedge_the_server() {
    let server = server_with_shards(2);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("addr");
    std::thread::scope(|scope| {
        let serve = scope.spawn(|| server.serve_tcp(&listener));

        // Mid-request: a partial line with no newline, then a hard drop.
        {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .write_all(br#"{"op":"predict","host":1,"sta"#)
                .expect("partial request");
            stream.flush().expect("flush");
        }
        // Mid-reply: a full request, dropped before reading the answer.
        {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .write_all(b"{\"op\":\"ping\"}\n{\"op\":\"stats\"}\n")
                .expect("full requests");
            stream.flush().expect("flush");
        }

        // The accept loop survives, and both connection slots drain: poll
        // `health` until this probe is the only connection left.
        let mut client = Client::connect(addr);
        let mut active = u64::MAX;
        for _ in 0..200 {
            let health = client.roundtrip(r#"{"op":"health"}"#);
            let json = Json::parse(&health).expect("health JSON");
            active = json.get::<u64>("active_connections").expect("active");
            if active == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_eq!(active, 1, "abandoned connections must release their slots");
        let pong = client.roundtrip(r#"{"op":"ping"}"#);
        assert_eq!(pong, r#"{"ok":true,"op":"ping"}"#);
        let bye = client.roundtrip(r#"{"op":"shutdown"}"#);
        assert!(bye.contains("\"op\":\"shutdown\""), "{bye}");
        serve.join().expect("serve thread").expect("clean shutdown");
    });
}

#[test]
fn oversized_sweep_grids_and_windows_get_error_replies() {
    // A 2^53-point sweep grid once reached `Vec::with_capacity(points)`
    // and aborted the process; a 1e12-hour window once overflowed the
    // midnight check. Both must be plain error replies on a connection
    // that keeps serving.
    let server = server_with_shards(2);
    let (_, lines) = ingest_stream(5, 3, 3);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("addr");
    std::thread::scope(|scope| {
        let serve = scope.spawn(|| server.serve_tcp(&listener));
        let mut client = Client::connect(addr);
        for line in &lines {
            let reply = client.roundtrip(line);
            assert!(reply.contains("\"ok\":true"), "{reply}");
        }
        let reply = client.roundtrip(
            r#"{"op":"sweep","host":3,"start":9.0,"hours":2.0,"points":9007199254740992}"#,
        );
        assert_eq!(
            reply,
            r#"{"ok":false,"error":"points must be at most the window's 1200 steps, got 9007199254740992"}"#
        );
        let reply = client.roundtrip(r#"{"op":"predict","host":3,"start":9.0,"hours":1e12}"#);
        assert_eq!(
            reply,
            r#"{"ok":false,"error":"window may cross at most one midnight: 9h + 1000000000000h"}"#
        );
        assert_eq!(
            client.roundtrip(r#"{"op":"ping"}"#),
            r#"{"ok":true,"op":"ping"}"#
        );
        let bye = client.roundtrip(r#"{"op":"shutdown"}"#);
        assert!(bye.contains("\"op\":\"shutdown\""), "{bye}");
        serve.join().expect("serve thread").expect("clean shutdown");
    });
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn roundtrip(&mut self, request: &str) -> String {
        writeln!(self.writer, "{request}").expect("send");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("recv");
        reply.trim_end().to_string()
    }
}

/// Golden replies for request lines outside the plain escape-free object
/// shape: escapes in keys and values, non-object top levels, bad syntax,
/// nesting past the parser's depth limit, duplicate keys, numeric edge
/// cases, and batches mixing all of these. The lines run in table order
/// against one server holding 8 generated days of host 3; only the last
/// one (an escaped `shutdown`) stops the service.
#[test]
fn hostile_lines_get_pinned_replies() {
    let deep = format!("{}{}", "[".repeat(600), "]".repeat(600));
    let table: Vec<(String, &[&str])> = vec![
        (
            "{\"op\":\"p\\u0069ng\"}".into(),
            &[r#"{"ok":true,"op":"ping"}"#],
        ),
        (
            "{\"o\\u0070\":\"ping\"}".into(),
            &[r#"{"ok":true,"op":"ping"}"#],
        ),
        (
            "{\"op\":\"predict\",\"host\":3,\"start\":9.0,\"hours\":2.0,\"init\":\"\\u0053\\u0032\"}".into(),
            &[r#"{"ok":true,"op":"predict","host":3,"window":"09:00+2.00h","day_type":"weekday","init":"S2","tr":0.6053628769820925}"#],
        ),
        (
            "{\"op\":\"predict\",\"host\":3,\"start\":9.0,\"hours\":2.0,\"day_type\":\"week\\u0065nd\"}".into(),
            &[r#"{"ok":true,"op":"predict","host":3,"window":"09:00+2.00h","day_type":"weekend","init":"S1","tr":1}"#],
        ),
        (
            "{\"op\":\"predict\",\"host\":3,\"start\":9.0,\"hours\":2.0,\"init\":\"S\\u0033\"}".into(),
            &[r#"{"ok":false,"error":"init must be S1 or S2, got S3"}"#],
        ),
        (
            "{\"op\":\"n\\u00f6pe\\n\"}".into(),
            &[r#"{"ok":false,"error":"unknown op `nöpe\n`"}"#],
        ),
        (
            "{\"op\":\"\\u0000\"}".into(),
            &[r#"{"ok":false,"error":"unknown op `\u0000`"}"#],
        ),
        (
            "{\"op\":\"sweep\",\"host\":3,\"start\":9.0,\"hours\":1.0,\"points\":3,\"init\":\"\\/S2\"}".into(),
            &[r#"{"ok":false,"error":"init must be S1 or S2, got /S2"}"#],
        ),
        (
            "{\"op\":\"sweep\",\"host\":3,\"start\":9.0,\"hours\":1.0,\"points\":3,\"init\":\"s\\u0032\"}".into(),
            &[r#"{"window":"09:00+1.00h","day_type":"weekday","init":"S2","step_secs":6,"horizon_steps":600,"points":[{"steps":200,"horizon_hr":0.3333333333333333,"tr":0.7862395807553241},{"steps":400,"horizon_hr":0.6666666666666666,"tr":0.7221353907230748},{"steps":600,"horizon_hr":1,"tr":0.679447123999675}]}"#],
        ),
        (
            "{\"op\":\"ingest\",\"host\":4,\"day_index\":0,\"states\":\"1\\u00329\"}".into(),
            &[r#"{"ok":false,"error":"invalid state digit '9' (expected 1-5)"}"#],
        ),
        (
            "{\"op\":\"ingest\",\"host\":1,\"states\":\"1é\"}".into(),
            &[r#"{"ok":false,"error":"invalid state digit 'é' (expected 1-5)"}"#],
        ),
        (
            "{\"op\":\"ingest\",\"host\":1,\"states\":\"12😀\"}".into(),
            &[r#"{"ok":false,"error":"invalid state digit '😀' (expected 1-5)"}"#],
        ),
        (
            "[1,2]".into(),
            &[r#"{"ok":false,"error":"json error: expected object with field `op`, found array"}"#],
        ),
        (
            "5".into(),
            &[r#"{"ok":false,"error":"json error: expected object with field `op`, found number"}"#],
        ),
        (
            "\"ping\"".into(),
            &[r#"{"ok":false,"error":"json error: expected object with field `op`, found string"}"#],
        ),
        (
            "null".into(),
            &[r#"{"ok":false,"error":"json error: expected object with field `op`, found null"}"#],
        ),
        (
            "not json".into(),
            &[r#"{"ok":false,"error":"bad request: json error: expected `null` at byte 0"}"#],
        ),
        (
            "{\"op\":\"ping\"}x".into(),
            &[r#"{"ok":false,"error":"bad request: json error: trailing characters after document at byte 13"}"#],
        ),
        (
            "{\"op\":\"ping\",}".into(),
            &[r#"{"ok":false,"error":"bad request: json error: expected `\"` at byte 13"}"#],
        ),
        (
            "{\"op\":\"\\ud800\"}".into(),
            &[r#"{"ok":false,"error":"bad request: json error: unpaired high surrogate at byte 13"}"#],
        ),
        (
            "{\"op\":\"\\q\"}".into(),
            &[r#"{"ok":false,"error":"bad request: json error: invalid escape sequence at byte 8"}"#],
        ),
        (
            "{\"op\":\"pi\tng\"}".into(),
            &[r#"{"ok":false,"error":"bad request: json error: control character in string at byte 9"}"#],
        ),
        (
            deep.clone(),
            &[r#"{"ok":false,"error":"bad request: json error: document nested too deeply at byte 512"}"#],
        ),
        (
            format!("{{\"op\":\"ping\",\"x\":{deep}}}"),
            &[r#"{"ok":false,"error":"bad request: json error: document nested too deeply at byte 528"}"#],
        ),
        (
            "{\"op\":\"ping\",\"op\":\"shutdown\"}".into(),
            &[r#"{"ok":true,"op":"ping"}"#],
        ),
        (
            "{\"op\":\"host\",\"host\":3,\"host\":\"three\"}".into(),
            &[r#"{"ok":true,"op":"host","host":3,"days":8}"#],
        ),
        (
            "{\"op\":\"predict\",\"host\":3,\"start\":-0,\"hours\":2.0}".into(),
            &[r#"{"ok":true,"op":"predict","host":3,"window":"00:00+2.00h","day_type":"weekday","init":"S1","tr":1}"#],
        ),
        (
            "{\"op\":\"predict\",\"host\":3,\"start\":9.0,\"hours\":1e309}".into(),
            &[r#"{"ok":false,"error":"invalid window: start 9h + infh"}"#],
        ),
        (
            "{\"op\":\"host\",\"host\":18446744073709551616}".into(),
            &[r#"{"ok":false,"error":"json error: host: expected unsigned integer, found number"}"#],
        ),
        (
            "{\"op\":\"host\",\"host\":-0}".into(),
            &[r#"{"ok":false,"error":"unknown host 0"}"#],
        ),
        (
            "{\"op\":\"b\\u0061tch\",\"ops\":[]}".into(),
            &[r#"{"ok":false,"error":"batch needs at least one op"}"#],
        ),
        (
            "{\"op\":\"batch\",\"ops\":\"\\u005b\\u005d\"}".into(),
            &[r#"{"ok":false,"error":"json error: ops: expected array, found string"}"#],
        ),
        (
            "{\"op\":\"batch\",\"ops\":[{\"op\":\"p\\u0069ng\"},[1],5,\"x\",null,{\"op\":\"st\\u0061ts\"},{\"op\":\"shutdown\"},{\"op\":\"predict\",\"host\":3,\"start\":9.0,\"hours\":2.0,\"init\":\"\\u0053\\u0031\"},{\"op\":\"predict\",\"host\":3,\"start\":9.0,\"hours\":2.0},{}]}".into(),
            &[
                r#"{"ok":true,"op":"ping"}"#,
                r#"{"ok":false,"error":"json error: expected object with field `op`, found array"}"#,
                r#"{"ok":false,"error":"json error: expected object with field `op`, found number"}"#,
                r#"{"ok":false,"error":"json error: expected object with field `op`, found string"}"#,
                r#"{"ok":false,"error":"json error: expected object with field `op`, found null"}"#,
                r#"{"ok":false,"error":"op `stats` not allowed inside batch"}"#,
                r#"{"ok":false,"error":"op `shutdown` not allowed inside batch"}"#,
                r#"{"ok":true,"op":"predict","host":3,"window":"09:00+2.00h","day_type":"weekday","init":"S1","tr":0.6210692850819619}"#,
                r#"{"ok":true,"op":"predict","host":3,"window":"09:00+2.00h","day_type":"weekday","init":"S1","tr":0.6210692850819619}"#,
                r#"{"ok":false,"error":"json error: missing field `op`"}"#,
            ],
        ),
        (
            "{\"o\\u0070\":\"batch\",\"ops\":[{\"op\":\"ping\"},{\"op\":\"ingest\",\"host\":4,\"states\":\"\\u0031\"},{\"\\u006fp\":\"predict\",\"h\\u006fst\":3,\"start\":9.5,\"hours\":1.0,\"init\":\"S2\"},{\"op\":\"batch\",\"ops\":[]}]}".into(),
            &[
                r#"{"ok":true,"op":"ping"}"#,
                r#"{"ok":true,"op":"ingest","host":4,"day_index":0,"days":1}"#,
                r#"{"ok":true,"op":"predict","host":3,"window":"09:30+1.00h","day_type":"weekday","init":"S2","tr":0.7989669749156963}"#,
                r#"{"ok":false,"error":"op `batch` not allowed inside batch"}"#,
            ],
        ),
        (
            "{\"op\":\"batch\",\"ops\":[{\"op\":\"ping\"},]}".into(),
            &[r#"{"ok":false,"error":"bad request: json error: unexpected character `]` at byte 35"}"#],
        ),
        (
            "{\"op\":\"ingest\",\"host\":9,\"day_index\":18446744073709551615,\"states\":\"12\"}".into(),
            &[r#"{"ok":true,"op":"ingest","host":9,"day_index":18446744073709551615,"days":1}"#],
        ),
        (
            "{\"op\":\"ingest\",\"host\":9,\"states\":\"12\"}".into(),
            &[r#"{"ok":false,"error":"host 9: calendar exhausted, no day index follows 18446744073709551615"}"#],
        ),
        (
            "{\"op\":\"sh\\u0075tdown\"}".into(),
            &[r#"{"ok":true,"op":"shutdown"}"#],
        ),
    ];
    let (_, lines) = ingest_stream(42, 8, 3);
    let server = server_with_shards(4);
    for line in &lines {
        let reply = server.handle_line(line);
        assert!(reply.line.contains("\"ok\":true"), "{}", reply.line);
    }
    let last = table.len() - 1;
    for (i, (request, want)) in table.iter().enumerate() {
        let reply = server.handle_line(request);
        assert_eq!(reply.line, want.join("\n"), "request: {request}");
        assert_eq!(reply.shutdown, i == last, "request: {request}");
    }
}
