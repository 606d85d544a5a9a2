//! `fgcs` — command-line front end for the availability-prediction library.
//!
//! ```text
//! fgcs generate --seed 42 --days 30 --machines 2 --profile lab --out traces/
//! fgcs stats    traces/machine-0.json
//! fgcs predict  traces/machine-0.json --start 9.0 --hours 2 [--init S2] [--weekend] [--ci]
//! fgcs sweep    traces/machine-0.json --start 9.0 --hours 2 [--points 12] [--init S2] [--weekend] [--json]
//! fgcs evaluate traces/machine-0.json --train 6 --test 4
//! fgcs serve    [--shards 8] [--port 0]   # or --oneshot for stdin→stdout
//! fgcs encode   traces/machine-0.json --host 1 | fgcs query 127.0.0.1:PORT
//! ```

use std::process::ExitCode;

use fgcs::core::predictor::evaluate_window;
use fgcs::prelude::*;
use fgcs::serve::{horizon_grid, parse_init, parse_window};

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--metrics-out PATH` is global: strip it before command dispatch so
    // positional matching (e.g. the TRACE.json lookup) never sees the path.
    let metrics_out = take_metrics_out(&mut args);
    if metrics_out.is_some() {
        fgcs::runtime::metrics::set_enabled(true);
    }
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "generate" => cmd_generate(rest),
        "stats" => cmd_stats(rest),
        "predict" => cmd_predict(rest),
        "sweep" => cmd_sweep(rest),
        "evaluate" => cmd_evaluate(rest),
        "serve" => cmd_serve(rest),
        "query" => cmd_query(rest),
        "encode" => cmd_encode(rest),
        "metrics" => cmd_metrics(rest),
        "chaos" => cmd_chaos(rest),
        "lint" => cmd_lint(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    if let Some(path) = metrics_out {
        if let Err(e) = write_metrics_snapshot(&path) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Removes `--metrics-out PATH` from the argument list, returning the path.
fn take_metrics_out(args: &mut Vec<String>) -> Option<String> {
    let i = args.iter().position(|a| a == "--metrics-out")?;
    if i + 1 >= args.len() {
        return None;
    }
    let path = args.remove(i + 1);
    args.remove(i);
    Some(path)
}

fn write_metrics_snapshot(path: &str) -> Result<(), String> {
    let json = fgcs::runtime::metrics::registry()
        .snapshot()
        .to_json()
        .to_string();
    std::fs::write(path, json + "\n").map_err(|e| format!("writing {path}: {e}"))
}

const USAGE: &str = "\
fgcs — resource availability prediction for fine-grained cycle sharing

USAGE:
  fgcs generate --seed N --days D [--machines M] [--profile lab|enterprise|server] [--out DIR]
  fgcs stats    TRACE.json
  fgcs predict  TRACE.json --start HOURS --hours H [--init S1|S2] [--weekend] [--ci]
  fgcs sweep    TRACE.json --start HOURS --hours H [--points N] [--init S1|S2] [--weekend] [--json]
  fgcs evaluate TRACE.json [--train A --test B] [--start HOURS] [--hours H]
  fgcs serve    [--shards N] [--max-days D] [--port P]  (TCP; prints `listening on ADDR`)
  fgcs serve    --oneshot [--shards N] [--max-days D]   (request lines stdin -> stdout)
                serve also accepts: --data-dir DIR (WAL + snapshots; recovers on start)
                --fsync-every N --snapshot-every N --max-line-bytes N --max-conns N
                --read-timeout-secs S (0 = never time out)
  fgcs query    HOST:PORT [--pipelined]                  (request lines stdin -> stdout)
  fgcs encode   TRACE.json [--host H]                   (trace days as serve ingest requests)
  fgcs metrics  [--seed N] [--days D]
  fgcs chaos    [--seed N] [--steps T] [--machines M] [--warmup-days D] [--no-faults|--zero-faults]
  fgcs chaos    --serve [--seed N] [--machines M] [--days D]  (kill -9 a real server, verify recovery)
  fgcs lint     [ROOT] [--inventory] [--timings] [--quiet]  (static analysis; nonzero on findings)

Any command also accepts --metrics-out PATH: enables the metrics registry
for the run and dumps its JSON snapshot to PATH on exit.
";

/// Looks up `--key value` in the argument list.
fn opt<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn flag(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == key)
}

fn parse<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> Result<T, String> {
    match opt(args, key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value for {key}: {v}")),
    }
}

fn load_trace(args: &[String]) -> Result<MachineTrace, String> {
    let path = args
        .iter()
        .find(|a| !a.starts_with("--") && a.ends_with(".json"))
        .ok_or("expected a TRACE.json argument")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    MachineTrace::from_json(&json).map_err(|e| format!("parsing {path}: {e}"))
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let seed: u64 = parse(args, "--seed", 2006)?;
    let days: usize = parse(args, "--days", 30)?;
    let machines: usize = parse(args, "--machines", 1)?;
    let out = opt(args, "--out").unwrap_or(".");
    let profile = opt(args, "--profile").unwrap_or("lab");
    let cfg = match profile {
        "lab" => TraceConfig::lab_machine(seed),
        "enterprise" => TraceConfig::enterprise_machine(seed),
        "server" => TraceConfig::server_machine(seed),
        other => return Err(format!("unknown profile `{other}` (lab|enterprise|server)")),
    };
    std::fs::create_dir_all(out).map_err(|e| format!("creating {out}: {e}"))?;
    for trace in generate_cluster(&cfg, machines, days) {
        let path = format!("{out}/machine-{}.json", trace.machine_id);
        let json = trace.to_json().map_err(|e| e.to_string())?;
        std::fs::write(&path, json).map_err(|e| format!("writing {path}: {e}"))?;
        println!(
            "wrote {path} ({days} days, {} samples)",
            trace.samples.len()
        );
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let trace = load_trace(args)?;
    let model = AvailabilityModel::default();
    let history = trace.to_history(&model).map_err(|e| e.to_string())?;
    println!("machine {} — {} days", trace.machine_id, trace.days());
    println!("{}", TraceStats::from_history(&history));
    Ok(())
}

fn cmd_predict(args: &[String]) -> Result<(), String> {
    let trace = load_trace(args)?;
    let start: f64 = parse(args, "--start", 9.0)?;
    let hours: f64 = parse(args, "--hours", 1.0)?;
    let window = parse_window(start, hours)?;
    let init = parse_init(opt(args, "--init").unwrap_or("S1"))?;
    let day_type = if flag(args, "--weekend") {
        DayType::Weekend
    } else {
        DayType::Weekday
    };
    let model = AvailabilityModel::default();
    let history = trace.to_history(&model).map_err(|e| e.to_string())?;
    let predictor = SmpPredictor::new(model);

    if flag(args, "--ci") {
        let mut rng = fgcs::runtime::rng::Xoshiro256::seed_from_u64(0xC1);
        let pred = predictor
            .predict_with_ci(&history, day_type, window, init, 500, 0.9, &mut rng)
            .map_err(|e| e.to_string())?;
        println!(
            "TR({window}, {day_type}, init {init}) = {:.4}  [90% CI {:.4} – {:.4}, {} days]",
            pred.tr, pred.ci_low, pred.ci_high, pred.history_days
        );
    } else {
        let tr = predictor
            .predict(&history, day_type, window, init)
            .map_err(|e| e.to_string())?;
        println!("TR({window}, {day_type}, init {init}) = {tr:.4}");
    }
    Ok(())
}

/// Prints a TR-vs-horizon table for every horizon on an evenly spaced grid
/// up to the window length — all answered from a *single* batched Eq.-3
/// recursion pass, where `predict` would pay one pass per horizon.
fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let trace = load_trace(args)?;
    let start: f64 = parse(args, "--start", 9.0)?;
    let hours: f64 = parse(args, "--hours", 2.0)?;
    let points: usize = parse(args, "--points", 12)?;
    let window = parse_window(start, hours)?;
    let init = parse_init(opt(args, "--init").unwrap_or("S1"))?;
    let day_type = if flag(args, "--weekend") {
        DayType::Weekend
    } else {
        DayType::Weekday
    };
    let model = AvailabilityModel::default();
    let history = trace.to_history(&model).map_err(|e| e.to_string())?;
    let predictor = SmpPredictor::new(model);
    let curve = predictor
        .predict_tr_curve(&history, day_type, window)
        .map_err(|e| e.to_string())?;
    let steps = curve.horizon_steps();

    if flag(args, "--json") {
        // Shared formatter with the serve `sweep` reply, so the two are
        // byte-comparable (the CI serve smoke diffs them).
        let doc = fgcs::serve::sweep_json(&curve, day_type, window, init, points)?;
        println!("{doc}");
        return Ok(());
    }

    let grid = horizon_grid(steps, points)?;
    println!(
        "machine {} — TR vs horizon, {day_type} window {window}, init {init}",
        trace.machine_id
    );
    println!("{:>10} {:>8} {:>8}", "horizon_hr", "steps", "TR");
    for m in grid {
        let tr = curve.tr(init, m).map_err(|e| e.to_string())?;
        let horizon_hr = m as f64 * f64::from(curve.step_secs()) / 3600.0;
        println!("{horizon_hr:>10.2} {m:>8} {tr:>8.4}");
    }
    Ok(())
}

/// Runs a small generate → classify → predict pipeline with the registry
/// enabled and prints the resulting snapshot — a self-contained way to see
/// what the instrumentation records without wiring up trace files.
fn cmd_metrics(args: &[String]) -> Result<(), String> {
    let seed: u64 = parse(args, "--seed", 2006)?;
    let days: usize = parse(args, "--days", 14)?;
    fgcs::runtime::metrics::set_enabled(true);
    let model = AvailabilityModel::default();
    let trace = TraceGenerator::new(TraceConfig::lab_machine(seed)).generate_days(days);
    let history = trace.to_history(&model).map_err(|e| e.to_string())?;
    let predictor = SmpPredictor::new(model);
    for hours in [1.0, 2.0, 5.0] {
        let window = TimeWindow::from_hours(9.0, hours);
        predictor
            .predict(&history, DayType::Weekday, window, State::S1)
            .map_err(|e| e.to_string())?;
    }
    let snapshot = fgcs::runtime::metrics::registry().snapshot();
    println!("{}", snapshot.to_json());
    Ok(())
}

/// Runs a seeded chaos campaign (live fault injection at each node's
/// monitor + scheduling under blackouts) and prints the report as JSON. Exits with
/// an error when a robustness invariant is violated, so CI can gate on it.
fn cmd_chaos(args: &[String]) -> Result<(), String> {
    if flag(args, "--serve") {
        return cmd_chaos_serve(args);
    }
    let seed: u64 = parse(args, "--seed", 2006)?;
    let steps: usize = parse(args, "--steps", 10_000)?;
    let machines: usize = parse(args, "--machines", 4)?;
    let warmup_days: usize = parse(args, "--warmup-days", 2)?;
    if machines == 0 {
        return Err("--machines must be positive".into());
    }
    let mut config = fgcs::sim::ChaosConfig::new(seed);
    config.steps = steps;
    config.machines = machines;
    config.warmup_days = warmup_days;
    if config.trace_days().is_none() {
        return Err(format!(
            "--warmup-days {warmup_days} with --steps {steps} overflows the campaign's trace length"
        ));
    }
    if flag(args, "--no-faults") {
        config = config.without_faults();
    }
    if flag(args, "--zero-faults") {
        // All-zero-rate plan: must be bit-identical to --no-faults (the
        // CI chaos smoke stage diffs the two outputs).
        config = config.with_plan(fgcs::runtime::fault::FaultPlan::none(seed));
    }
    let report = fgcs::sim::run_campaign(&config);
    println!("{}", fgcs::runtime::json::to_string(&report));
    if !report.invariants_hold() {
        return Err(format!(
            "chaos invariants violated: {} out-of-range TRs (tr_min {}, tr_max {})",
            report.out_of_range, report.tr_min, report.tr_max
        ));
    }
    Ok(())
}

/// Crash-recovery chaos (`fgcs chaos --serve`): spawns this very binary as
/// `fgcs serve --data-dir`, drives it through a byte-faulted client
/// (partial writes, mid-line and mid-reply disconnects, stalls), SIGKILLs
/// it mid-stream, restarts it from the WAL, and byte-compares recovered
/// sweeps against an offline replay (see [`fgcs::serve_chaos`]). Exits
/// nonzero when the recovery invariant is violated, so CI can gate on it.
fn cmd_chaos_serve(args: &[String]) -> Result<(), String> {
    let seed: u64 = parse(args, "--seed", 2006)?;
    let hosts: u64 = parse(args, "--machines", 3u64)?;
    let days: usize = parse(args, "--days", 6)?;
    if hosts == 0 || days == 0 {
        return Err("--machines and --days must be positive".into());
    }
    let server_cmd =
        std::env::current_exe().map_err(|e| format!("locating the fgcs binary: {e}"))?;
    let data_dir =
        std::env::temp_dir().join(format!("fgcs-serve-chaos-{}-{seed}", std::process::id()));
    let config = fgcs::serve_chaos::ServeChaosConfig {
        seed,
        hosts,
        days,
        data_dir: data_dir.clone(),
        server_cmd,
    };
    let result = fgcs::serve_chaos::run_serve_chaos(&config);
    let _ = std::fs::remove_dir_all(&data_dir);
    let report = result?;
    println!("{}", report.to_json());
    Ok(())
}

/// Runs the in-tree static-analysis pass ([`fgcs_lint`]) over the
/// workspace: determinism, unsafe audit, lock order, no-alloc regions,
/// hermeticity. Findings go to stdout as `file:line: [rule] message`; the
/// command fails when any survive the `lint.allow` allowlist. Summary
/// counters and per-rule timings flow through the metrics registry, so
/// `fgcs lint --metrics-out PATH` integrates with the observability layer.
fn cmd_lint(args: &[String]) -> Result<(), String> {
    let root = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map_or(".", String::as_str);
    let report = fgcs_lint::lint_workspace(std::path::Path::new(root))
        .map_err(|e| format!("linting {root}: {e}"))?;

    let metrics = fgcs::runtime::metrics::registry();
    metrics
        .counter("lint.files_scanned")
        .add(report.files_scanned as u64);
    metrics
        .counter("lint.rules_checked")
        .add(report.rules_checked as u64);
    metrics
        .counter("lint.violations")
        .add(report.findings.len() as u64);
    metrics
        .counter("lint.suppressed")
        .add(report.suppressed.len() as u64);
    for (rule, ns) in &report.rule_timings_ns {
        metrics.timing(&format!("lint.rule.{rule}")).record(*ns);
    }
    metrics.timing("lint.elapsed").record(report.elapsed_ns);

    for f in &report.findings {
        println!("{f}");
    }
    let quiet = flag(args, "--quiet");
    if flag(args, "--inventory") && !quiet {
        println!("unsafe inventory ({} sites):", report.unsafe_sites.len());
        for s in &report.unsafe_sites {
            let why = s.safety.as_deref().unwrap_or("<missing SAFETY comment>");
            println!("  {}:{}: {}", s.file, s.line, why.trim());
        }
    }
    if flag(args, "--timings") && !quiet {
        for (rule, ns) in &report.rule_timings_ns {
            println!("  {rule:<16} {:>8} us", ns / 1_000);
        }
    }
    if !quiet {
        println!("{}", report.summary());
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "{} lint violation(s) — fix them or add vetted entries to lint.allow",
            report.findings.len()
        ))
    }
}

/// Runs the streaming prediction service — oneshot (stdin → stdout) or as
/// a TCP listener announcing `listening on ADDR` for scripted clients.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let shards: usize = parse(args, "--shards", 8)?;
    if shards == 0 {
        return Err("--shards must be positive".into());
    }
    let defaults = fgcs::serve::ServeConfig::default();
    let max_days: usize = parse(args, "--max-days", 0)?;
    let max_line_bytes: usize = parse(args, "--max-line-bytes", defaults.max_line_bytes)?;
    let max_connections: usize = parse(args, "--max-conns", defaults.max_connections)?;
    let read_timeout_secs: u64 = parse(args, "--read-timeout-secs", 120)?;
    let fsync_every: u64 = parse(args, "--fsync-every", defaults.fsync_every)?;
    let snapshot_every: u64 = parse(args, "--snapshot-every", defaults.snapshot_every)?;
    let config = fgcs::serve::ServeConfig {
        shards,
        max_history_days: (max_days > 0).then_some(max_days),
        max_line_bytes,
        read_timeout: (read_timeout_secs > 0)
            .then(|| std::time::Duration::from_secs(read_timeout_secs)),
        max_connections,
        data_dir: opt(args, "--data-dir").map(std::path::PathBuf::from),
        fsync_every,
        snapshot_every,
        debug_ops: flag(args, "--debug-ops"),
    };
    let server = fgcs::serve::Server::open(&config).map_err(|e| format!("opening server: {e}"))?;
    if flag(args, "--oneshot") {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        server
            .serve_lines(stdin.lock(), stdout.lock())
            .map_err(|e| format!("serving stdin: {e}"))?;
        return Ok(());
    }
    let port: u16 = parse(args, "--port", 0)?;
    let listener = std::net::TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| format!("binding 127.0.0.1:{port}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    println!("listening on {addr}");
    std::io::Write::flush(&mut std::io::stdout()).map_err(|e| e.to_string())?;
    server
        .serve_tcp(&listener)
        .map_err(|e| format!("serving {addr}: {e}"))
}

/// Streams request lines from stdin to a running `fgcs serve` instance.
///
/// The default mode is lockstep: one request line out, one reply line
/// back. `--pipelined` instead writes every request from a background
/// thread while replies stream to stdout until the server half-closes —
/// the socket stays full in both directions, and multi-line `batch`
/// replies (which break the one-line-per-request assumption) pass through
/// unframed. Stdin EOF half-closes the write side, which the server
/// treats as end of session for this connection.
fn cmd_query(args: &[String]) -> Result<(), String> {
    use std::io::{BufRead, BufReader, Write};
    let addr = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or("expected a HOST:PORT argument")?
        .clone();
    // A server that is still binding (or restarting after a crash) answers
    // ConnectionRefused for a beat; retry with doubling backoff instead of
    // failing the whole stream on the first attempt.
    let stream = fgcs::serve::connect_with_retry(
        &addr,
        3,
        std::time::Duration::from_millis(200),
        &mut std::thread::sleep,
    )?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    if args.iter().any(|a| a == "--pipelined") {
        let mut writer = stream;
        let send_addr = addr.clone();
        let sender = std::thread::spawn(move || -> Result<(), String> {
            for line in std::io::stdin().lock().lines() {
                let line = line.map_err(|e| e.to_string())?;
                if line.trim().is_empty() {
                    continue;
                }
                writeln!(writer, "{line}").map_err(|e| format!("sending to {send_addr}: {e}"))?;
            }
            writer
                .shutdown(std::net::Shutdown::Write)
                .map_err(|e| e.to_string())
        });
        let mut stdout = std::io::stdout().lock();
        std::io::copy(&mut reader, &mut stdout)
            .map_err(|e| format!("reading replies from {addr}: {e}"))?;
        return sender.join().map_err(|_| "sender thread panicked")?;
    }
    let mut writer = stream;
    let mut reply = String::new();
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        if line.trim().is_empty() {
            continue;
        }
        writeln!(writer, "{line}").map_err(|e| format!("sending to {addr}: {e}"))?;
        reply.clear();
        if BufRead::read_line(&mut reader, &mut reply).map_err(|e| e.to_string())? == 0 {
            return Err(format!("{addr} closed the connection"));
        }
        print!("{reply}");
    }
    Ok(())
}

/// Classifies a trace and prints its days as serve `ingest` request lines
/// (digit-encoded states), ready to pipe into `fgcs serve` or `fgcs query`.
fn cmd_encode(args: &[String]) -> Result<(), String> {
    use fgcs::runtime::json::Json;
    let trace = load_trace(args)?;
    let host: u64 = parse(args, "--host", trace.machine_id)?;
    let model = AvailabilityModel::default();
    let history = trace.to_history(&model).map_err(|e| e.to_string())?;
    for day in history.days() {
        let req = Json::Obj(vec![
            ("op".into(), Json::Str("ingest".into())),
            ("host".into(), Json::U64(host)),
            ("day_index".into(), Json::U64(day.day_index as u64)),
            (
                "states".into(),
                Json::Str(fgcs::serve::encode_states(&day.log.states())),
            ),
        ]);
        println!("{req}");
    }
    Ok(())
}

fn cmd_evaluate(args: &[String]) -> Result<(), String> {
    let trace = load_trace(args)?;
    let train: usize = parse(args, "--train", 1)?;
    let test: usize = parse(args, "--test", 1)?;
    let start: f64 = parse(args, "--start", 8.0)?;
    if train == 0 && test == 0 {
        return Err("ratio must be positive, got 0:0".into());
    }
    let lengths: Vec<f64> = match opt(args, "--hours") {
        Some(_) => vec![parse(args, "--hours", 0.0)?],
        None => vec![1.0, 2.0, 3.0, 5.0, 10.0],
    };
    let windows = lengths
        .into_iter()
        .map(|h| parse_window(start, h).map(|w| (h, w)))
        .collect::<Result<Vec<_>, _>>()?;
    let model = AvailabilityModel::default();
    let history = trace.to_history(&model).map_err(|e| e.to_string())?;
    let (tr_set, te_set) = history.split_ratio(train, test);
    if tr_set.is_empty() || te_set.is_empty() {
        let side = if tr_set.is_empty() {
            "training"
        } else {
            "test"
        };
        return Err(format!(
            "a {train}:{test} split of {} days leaves no {side} days",
            history.len()
        ));
    }
    let predictor = SmpPredictor::new(model);

    println!(
        "machine {} — {train}:{test} split, windows starting {start:.1}h (weekdays)",
        trace.machine_id
    );
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>6}",
        "hours", "predicted", "empirical", "rel_err", "days"
    );
    for (h, window) in windows {
        match evaluate_window(&predictor, &tr_set, &te_set, DayType::Weekday, window) {
            Ok(eval) => {
                let err = eval
                    .relative_error()
                    .map(|e| format!("{:.1}%", 100.0 * e))
                    .unwrap_or_else(|| "-".into());
                println!(
                    "{h:>8} {:>10.3} {:>10.3} {err:>10} {:>6}",
                    eval.predicted, eval.empirical, eval.days_used
                );
            }
            Err(e) => println!("{h:>8} evaluation failed: {e}"),
        }
    }
    Ok(())
}
