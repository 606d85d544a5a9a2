//! The system under test: an in-process [`Server`] serving TCP on
//! `127.0.0.1:0`, brought to a workload's warm state over the wire.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fgcs::serve::{ServeConfig, Server};

use crate::client::{self, Stop};
use crate::workload::{self, Req, Workload, SNAPSHOT_EVERY};

/// Requests in flight per connection while warming up.
const WARM_WINDOW: usize = 16;

/// The server configuration of a workload (`data_dir` only when durable).
pub fn config(w: &Workload, data_dir: &Path) -> ServeConfig {
    ServeConfig {
        data_dir: w.durable.then(|| data_dir.to_path_buf()),
        snapshot_every: SNAPSHOT_EVERY,
        ..ServeConfig::default()
    }
}

/// A temporary data directory under `.bench_data/` in the working directory,
/// unique to this process and `label`, and empty.
pub fn fresh_dir(label: &str) -> io::Result<PathBuf> {
    let dir = PathBuf::from(".bench_data").join(format!("{}-{label}", std::process::id()));
    remove_dir(&dir)?;
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

pub fn remove_dir(dir: &Path) -> io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// A running `serve_tcp` accept loop on its own thread, which owns the
/// server.
pub struct Running {
    pub addr: SocketAddr,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl Running {
    pub fn start(server: Server) -> io::Result<Running> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let thread = std::thread::spawn(move || server.serve_tcp(&listener));
        Ok(Running {
            addr,
            thread: Some(thread),
        })
    }

    /// Sends `shutdown` (the server fsyncs and snapshots) and joins the
    /// accept loop. Every other client connection must be closed first.
    pub fn stop(mut self) -> io::Result<()> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> io::Result<()> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let reply = client::request(self.addr, "{\"op\":\"shutdown\"}");
        let joined = thread.join().expect("serve_tcp thread panicked");
        reply?;
        joined
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// The warm-up requests of setup with their lines, rendered once per run so
/// that neither `setup_s` nor `rss_mb` counts the client building them:
/// every host's warm days (day-major, as a fleet closes its days), then —
/// for `warm_grid` workloads — each host's grid windows with both inits.
pub struct WarmLines {
    ingest: Vec<(Req, Vec<u8>)>,
    grid: Vec<(Req, Vec<u8>)>,
}

impl WarmLines {
    pub fn new(w: &Workload, hosts: u32, seed: u64) -> WarmLines {
        let render = |req: Req| {
            let mut line = Vec::new();
            workload::write_line(seed, &req, &mut line);
            (req, line)
        };
        WarmLines {
            ingest: workload::warm_ingest(hosts).map(render).collect(),
            grid: if w.warm_grid {
                workload::warm_grid(hosts).map(render).collect()
            } else {
                Vec::new()
            },
        }
    }
}

/// Sends `reqs` on one pipelined connection; fails on any bad reply.
fn drive(addr: SocketAddr, reqs: &[(Req, Vec<u8>)]) -> io::Result<()> {
    let mut reqs = reqs.iter();
    let stop = Stop {
        t0: Instant::now(),
        deadline: None,
        max_ops: None,
    };
    let mut next = |buf: &mut Vec<u8>| {
        let (req, line) = reqs.next()?;
        buf.extend_from_slice(line);
        Some(*req)
    };
    let out = client::closed_loop(addr, &mut next, WARM_WINDOW, stop, &|_, _| false)?;
    if out.failed > 0 {
        return Err(io::Error::other(format!(
            "{} of {} warm-up requests failed",
            out.failed, out.attempted
        )));
    }
    Ok(())
}

/// A server in the workload's warm state, and how long getting there took.
pub struct Warm {
    pub running: Running,
    pub setup: Duration,
}

/// `Server::open` plus the warm state over TCP: warm ingest, then (durable
/// workloads) a graceful shutdown and a restart that recovers from the data
/// dir, then the grid warm-up.
pub fn setup(w: &Workload, lines: &WarmLines, dir: &Path) -> io::Result<Warm> {
    let cfg = config(w, dir);
    let start = Instant::now();
    let open = |cfg: &ServeConfig| {
        Server::open(cfg).map_err(|e| io::Error::other(format!("Server::open: {e}")))
    };
    let mut running = Running::start(open(&cfg)?)?;
    drive(running.addr, &lines.ingest)?;
    if w.durable {
        running.stop()?;
        running = Running::start(open(&cfg)?)?;
    }
    drive(running.addr, &lines.grid)?;
    Ok(Warm {
        running,
        setup: start.elapsed(),
    })
}

/// This process's resident set size in bytes.
pub fn rss_bytes() -> io::Result<u64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| io::Error::other("no VmRSS in /proc/self/status"))
}
