//! The TCP client side: an open-loop generator with a separate reply
//! reader, a closed-loop pipelined client, and reply framing.
//!
//! Latency in the open loop counts from each request's *due* time, so a
//! stall is charged to every request queued behind it (no coordinated
//! omission); the sender's own lateness is recorded separately. Pacing is
//! done by sleeping to the due instant, never by socket read timeouts
//! (`SO_RCVTIMEO` is jiffy-granular). Socket timeouts below only bound a
//! hung server.
//!
//! Replies are read through [`reply_reader`], which acknowledges them at
//! once (see [`crate::sys::quick_ack`]).

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::sys::{quick_ack, CpuClock};
use crate::workload::{write_line, Req};

/// A reply slower than this fails the run instead of hanging it.
const HANG_GUARD: Duration = Duration::from_secs(30);

/// Reads a socket, acknowledging what arrives at once.
pub struct AckingReader<'a>(&'a TcpStream);

impl Read for AckingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut stream = self.0;
        let n = stream.read(buf);
        quick_ack(stream);
        n
    }
}

pub fn reply_reader(stream: &TcpStream) -> BufReader<AckingReader<'_>> {
    quick_ack(stream);
    BufReader::with_capacity(1 << 16, AckingReader(stream))
}

/// A sampled request and its reply (lines joined by `'\n'`), checked
/// against the oracle after the phase.
#[derive(Debug, Clone)]
pub struct Check {
    pub req: Req,
    pub reply: String,
}

/// What one connection (or one open-loop phase) observed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Open loop: `(due_ns, latency_ns)`; closed loop: `(done_ns, 0)`.
    /// Times are relative to the phase start.
    pub samples: Vec<(u64, u64)>,
    /// Open loop: how late the sender wrote each request, ns.
    pub lags: Vec<u64>,
    /// Closed loop: when this connection stopped issuing requests, ns.
    pub stop_ns: u64,
    /// Open loop: CPU time the process used apart from the sender and the
    /// reader, ns — the server's, as no other thread is busy meanwhile.
    pub server_cpu_ns: u64,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
}

pub fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(HANG_GUARD))?;
    stream.set_write_timeout(Some(HANG_GUARD))?;
    Ok(stream)
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Reads the `req.reply_lines()` lines answering `req`. Returns whether the
/// reply is acceptable without the oracle: no `"ok":false` line, and an
/// ingest ack names the expected day and day count. With `keep`, the reply
/// text is stored there.
pub fn read_reply(
    reader: &mut impl BufRead,
    req: &Req,
    buf: &mut Vec<u8>,
    mut keep: Option<&mut String>,
) -> io::Result<bool> {
    let mut ok = true;
    for i in 0..req.reply_lines() {
        buf.clear();
        if reader.read_until(b'\n', buf)? == 0 || buf.last() != Some(&b'\n') {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-reply",
            ));
        }
        buf.pop();
        ok &= match *req {
            Req::Ingest { host, day } => {
                let want = format!(
                    "{{\"ok\":true,\"op\":\"ingest\",\"host\":{host},\"day_index\":{day},\"days\":{}}}",
                    day + 1
                );
                buf.as_slice() == want.as_bytes()
            }
            _ => !buf.starts_with(b"{\"ok\":false"),
        };
        if let Some(text) = keep.as_deref_mut() {
            if i > 0 {
                text.push('\n');
            }
            text.push_str(&String::from_utf8_lossy(buf));
        }
    }
    Ok(ok)
}

/// Sends `reqs[k]` at `dues[k]` ns after the phase start on one
/// connection, from one sender thread, while this thread reads the
/// replies. `sample(k)` selects the replies kept for the oracle.
pub fn open_loop(
    addr: SocketAddr,
    seed: u64,
    reqs: &[Req],
    dues: &[u64],
    sample: &dyn Fn(usize, &Req) -> bool,
) -> io::Result<Outcome> {
    assert_eq!(reqs.len(), dues.len(), "one due time per request");
    let stream = connect(addr)?;
    let mut writer = stream.try_clone()?;
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut out = Outcome::default();
    // The sender passes its CPU clock to the reader, and stays alive (the
    // clock with it) until the reader drops its end of `done`.
    let (clock_tx, clock_rx) = std::sync::mpsc::sync_channel(1);
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let clock = CpuClock::this_thread();
            let ok = clock.is_ok();
            let _ = clock_tx.send(clock);
            if !ok {
                return Vec::new();
            }
            let mut lags = Vec::with_capacity(reqs.len());
            let mut line = Vec::with_capacity(1 << 15);
            for (k, req) in reqs.iter().enumerate() {
                let due = t0 + Duration::from_nanos(dues[k]);
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                lags.push(nanos(Instant::now().saturating_duration_since(due)));
                line.clear();
                write_line(seed, req, &mut line);
                if writer.write_all(&line).is_err() {
                    break;
                }
            }
            let _ = done_rx.recv();
            lags
        });
        let read = clock_rx
            .recv()
            .map_err(|_| io::Error::other("the sender thread ended before starting"))
            .and_then(|sender| {
                let clocks = [CpuClock::process()?, sender?, CpuClock::this_thread()?];
                let server_ns = || -> io::Result<u64> {
                    let client = clocks[1].ns()? + clocks[2].ns()?;
                    Ok(clocks[0].ns()?.saturating_sub(client))
                };
                let start = server_ns()?;
                read_replies(&stream, reqs, dues, t0, sample, &mut out);
                out.server_cpu_ns = server_ns()?.saturating_sub(start);
                Ok(())
            });
        drop(done_tx);
        if read.is_err() {
            // Unblock the sender.
            let _ = stream.shutdown(Shutdown::Both);
        }
        out.lags = sender.join().expect("sender thread panicked");
        read
    })?;
    Ok(out)
}

/// The reader side of [`open_loop`].
fn read_replies(
    stream: &TcpStream,
    reqs: &[Req],
    dues: &[u64],
    t0: Instant,
    sample: &dyn Fn(usize, &Req) -> bool,
    out: &mut Outcome,
) {
    let mut reader = reply_reader(stream);
    let mut buf = Vec::new();
    for (k, req) in reqs.iter().enumerate() {
        out.attempted += 1;
        let mut text = String::new();
        let keep = sample(k, req);
        match read_reply(&mut reader, req, &mut buf, keep.then_some(&mut text)) {
            Ok(ok) => {
                let done = nanos(Instant::now().saturating_duration_since(t0));
                let due = dues[k];
                out.samples.push((due, done.saturating_sub(due)));
                if !ok {
                    out.failed += 1;
                } else if keep {
                    out.checks.push(Check {
                        req: *req,
                        reply: text,
                    });
                }
            }
            Err(_) => {
                // Unanswered requests fail; unblock the sender.
                out.failed += (reqs.len() - k) as u64;
                out.attempted += (reqs.len() - k - 1) as u64;
                let _ = stream.shutdown(Shutdown::Both);
                break;
            }
        }
    }
}

/// When a closed-loop connection stops issuing requests.
#[derive(Debug, Clone, Copy)]
pub struct Stop {
    /// Phase start; completion times are measured from here.
    pub t0: Instant,
    /// Stop issuing at this offset from `t0` (`None`: run `next` dry).
    pub deadline: Option<Duration>,
    /// Stop after this many requests.
    pub max_ops: Option<u64>,
}

/// Drives one connection as a closed loop with `window` requests in
/// flight, drawing requests from `next` (which appends the request's line
/// to the buffer it is given) until it returns `None` or `stop` says so,
/// then draining the requests still in flight.
pub fn closed_loop(
    addr: SocketAddr,
    next: &mut dyn FnMut(&mut Vec<u8>) -> Option<Req>,
    window: usize,
    stop: Stop,
    sample: &dyn Fn(u64, &Req) -> bool,
) -> io::Result<Outcome> {
    let stream = connect(addr)?;
    let mut writer = &stream;
    let mut reader = reply_reader(&stream);
    let mut out = Outcome::default();
    let mut inflight: VecDeque<(Req, bool)> = VecDeque::with_capacity(window);
    let mut line = Vec::with_capacity(1 << 15);
    let mut buf = Vec::new();
    let mut sending = true;
    let elapsed = || nanos(stop.t0.elapsed());
    loop {
        while sending && inflight.len() < window {
            let open = stop.deadline.is_none_or(|d| stop.t0.elapsed() < d)
                && stop.max_ops.is_none_or(|m| out.attempted < m);
            line.clear();
            let req = if open { next(&mut line) } else { None };
            let Some(req) = req else {
                sending = false;
                out.stop_ns = elapsed();
                break;
            };
            writer.write_all(&line)?;
            inflight.push_back((req, sample(out.attempted, &req)));
            out.attempted += 1;
        }
        let Some((req, keep)) = inflight.pop_front() else {
            break;
        };
        let mut text = String::new();
        let ok = read_reply(&mut reader, &req, &mut buf, keep.then_some(&mut text))?;
        out.samples.push((elapsed(), 0));
        if !ok {
            out.failed += 1;
        } else if keep {
            out.checks.push(Check { req, reply: text });
        }
    }
    Ok(out)
}

/// Sends one line on a fresh connection and returns the reply line.
pub fn request(addr: SocketAddr, line: &str) -> io::Result<String> {
    let mut stream = connect(addr)?;
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    let mut reply = String::new();
    BufReader::new(&stream).read_line(&mut reply)?;
    if reply.pop() != Some('\n') {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("no reply to {line}"),
        ));
    }
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Query, WARM_DAYS};

    #[test]
    fn batch_replies_are_framed_as_eight_lines() {
        let predict = "{\"ok\":true,\"op\":\"predict\",\"tr\":0.5}\n";
        let stream = format!("{}{}", predict.repeat(8), predict);
        let mut reader = io::Cursor::new(stream.into_bytes());
        let mut buf = Vec::new();
        let mut text = String::new();
        let batch = Req::Batch { host: 1, day: 20 };
        assert!(read_reply(&mut reader, &batch, &mut buf, Some(&mut text)).expect("batch"));
        assert_eq!(text.lines().count(), 8);
        // The ninth line is the next request's reply, not part of the batch.
        let single = Req::Predict {
            host: 1,
            q: Query::grid(0, false),
        };
        assert!(read_reply(&mut reader, &single, &mut buf, None).expect("single"));
        assert!(read_reply(&mut reader, &single, &mut buf, None).is_err());
    }

    #[test]
    fn ingest_acks_must_name_the_expected_day_count() {
        let req = Req::Ingest {
            host: 4,
            day: WARM_DAYS,
        };
        let good = "{\"ok\":true,\"op\":\"ingest\",\"host\":4,\"day_index\":14,\"days\":15}\n";
        let stale = "{\"ok\":true,\"op\":\"ingest\",\"host\":4,\"day_index\":14,\"days\":14}\n";
        let mut buf = Vec::new();
        let mut r = io::Cursor::new(good.as_bytes().to_vec());
        assert!(read_reply(&mut r, &req, &mut buf, None).expect("good"));
        let mut r = io::Cursor::new(stale.as_bytes().to_vec());
        assert!(!read_reply(&mut r, &req, &mut buf, None).expect("stale"));
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // A loopback echo server that answers every line after 2 ms: with
        // due times 1 ms apart the replies queue, and the latency of the
        // k-th request grows by ~1 ms per request even though each reply
        // took only ~2 ms of service.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (conn, _) = listener.accept().expect("accept");
            let mut w = &conn;
            for line in BufReader::new(&conn).lines() {
                if line.is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
                if w.write_all(b"{\"ok\":true}\n").is_err() {
                    break;
                }
            }
        });
        let reqs = vec![
            Req::Predict {
                host: 0,
                q: Query::grid(0, false)
            };
            10
        ];
        let dues: Vec<u64> = (0..10).map(|k| k * 1_000_000).collect();
        let out = open_loop(addr, 1, &reqs, &dues, &|_, _| false).expect("open loop");
        server.join().expect("server");
        assert_eq!((out.attempted, out.failed), (10, 0));
        assert_eq!(out.lags.len(), 10);
        // Due times are exactly k ms.
        let dues: Vec<u64> = out.samples.iter().map(|s| s.0).collect();
        assert_eq!(dues, (0..10).map(|k| k * 1_000_000).collect::<Vec<u64>>());
        // The last request waited behind nine 2 ms services: ≥ 2·10 − 9 ms.
        let last = out.samples[9].1;
        assert!(last >= 11_000_000, "latency from due {last} ns");
        // The sender itself is never that late: lag stays below the queue.
        assert!(out.lags.iter().all(|&l| l < last));
    }
}
