//! End-to-end test of the `fgcs` command-line interface: generate a trace,
//! inspect it, predict on it, evaluate it — all through the binary.

use std::process::Command;

fn fgcs() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fgcs"))
}

#[test]
fn cli_full_workflow() {
    let dir = std::env::temp_dir().join(format!("fgcs-cli-test-{}", std::process::id()));
    let dir_str = dir.to_str().expect("utf8 temp path");

    // generate
    let out = fgcs()
        .args([
            "generate",
            "--seed",
            "77",
            "--days",
            "14",
            "--machines",
            "1",
            "--out",
            dir_str,
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace_path = dir.join("machine-0.json");
    assert!(trace_path.exists());
    let trace_str = trace_path.to_str().expect("utf8");

    // stats
    let out = fgcs().args(["stats", trace_str]).output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("occurrences"), "stats output: {text}");

    // predict (with CI)
    let out = fgcs()
        .args(["predict", trace_str, "--start", "9", "--hours", "1", "--ci"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("TR(") && text.contains("CI"),
        "predict output: {text}"
    );

    // sweep: 8 points, all answered from one batched recursion pass
    let out = fgcs()
        .args([
            "sweep", trace_str, "--start", "9", "--hours", "1", "--points", "8",
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("horizon_hr"), "sweep output: {text}");
    assert_eq!(
        text.lines().count(),
        2 + 8,
        "header lines plus one row per point: {text}"
    );
    // A point's TR must never exceed an earlier (shorter-horizon) one.
    let trs: Vec<f64> = text
        .lines()
        .skip(2)
        .filter_map(|l| l.split_whitespace().last()?.parse().ok())
        .collect();
    assert_eq!(trs.len(), 8);
    for pair in trs.windows(2) {
        assert!(pair[1] <= pair[0] + 1e-9, "TR rose with horizon: {trs:?}");
    }

    // sweep rejects a zero point count
    let out = fgcs()
        .args(["sweep", trace_str, "--points", "0"])
        .output()
        .expect("runs");
    assert!(!out.status.success());

    // evaluate
    let out = fgcs()
        .args([
            "evaluate", trace_str, "--train", "1", "--test", "1", "--hours", "1",
        ])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("empirical"), "evaluate output: {text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_oneshot_serve_matches_offline_sweep_bytes() {
    use std::io::Write;

    let dir = std::env::temp_dir().join(format!("fgcs-cli-serve-{}", std::process::id()));
    let dir_str = dir.to_str().expect("utf8 temp path");
    let out = fgcs()
        .args(["generate", "--seed", "7", "--days", "10", "--out", dir_str])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let trace_path = dir.join("machine-0.json");
    let trace_str = trace_path.to_str().expect("utf8");

    // encode: one ingest request line per classified day
    let out = fgcs()
        .args(["encode", trace_str, "--host", "1"])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let requests = String::from_utf8(out.stdout).expect("utf8");
    assert_eq!(requests.lines().count(), 10);
    assert!(requests.starts_with(r#"{"op":"ingest","host":1,"day_index":0,"#));

    // stream the requests plus a sweep query through `serve --oneshot`
    let mut child = fgcs()
        .args(["serve", "--oneshot"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawns");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(
            format!(
                "{requests}{}\n{}\n",
                r#"{"op":"sweep","host":1,"start":9.0,"hours":2.0,"points":12}"#,
                r#"{"op":"shutdown"}"#
            )
            .as_bytes(),
        )
        .expect("writes");
    let out = child.wait_with_output().expect("runs");
    assert!(out.status.success());
    let replies = String::from_utf8(out.stdout).expect("utf8");
    let served_sweep = replies
        .lines()
        .find(|l| l.starts_with(r#"{"window""#))
        .expect("sweep reply present");

    // the offline CLI sweep over the same trace must be byte-identical
    let out = fgcs()
        .args([
            "sweep", trace_str, "--start", "9.0", "--hours", "2.0", "--json",
        ])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let offline = String::from_utf8(out.stdout).expect("utf8");
    assert_eq!(served_sweep, offline.trim_end());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_rejects_unknown_command_and_bad_input() {
    let out = fgcs().args(["frobnicate"]).output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = fgcs()
        .args(["stats", "/nonexistent/trace.json"])
        .output()
        .expect("runs");
    assert!(!out.status.success());

    let out = fgcs().output().expect("runs");
    assert!(!out.status.success(), "no args should print usage and fail");
}

#[test]
fn cli_evaluate_refuses_bad_windows_and_ratios() {
    let dir = std::env::temp_dir().join(format!("fgcs-cli-evaluate-{}", std::process::id()));
    let dir_str = dir.to_str().expect("utf8 temp path");
    let out = fgcs()
        .args(["generate", "--seed", "7", "--days", "4", "--out", dir_str])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let trace_path = dir.join("machine-0.json");
    let trace_str = trace_path.to_str().expect("utf8");

    let cases: [(&[&str], &str); 4] = [
        (
            &["--start", "30", "--hours", "1"],
            "window must start within the day, got 30h",
        ),
        (
            &["--start", "8", "--hours", "2000000"],
            "window may cross at most one midnight",
        ),
        (&["--train", "0", "--test", "0"], "ratio must be positive"),
        (
            &["--train", "3", "--test", "18446744073709551615"],
            "leaves no training days",
        ),
    ];
    for (flags, error) in cases {
        let out = fgcs()
            .args(["evaluate", trace_str])
            .args(flags)
            .output()
            .expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {stderr}");
        assert!(stderr.contains(error), "{flags:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flags:?}: {stderr}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_help_succeeds() {
    let out = fgcs().args(["help"]).output().expect("runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn cli_chaos_refuses_a_trace_length_that_overflows() {
    // Only overflowing values: a large one that fits runs the trace
    // generator for minutes.
    let max = "18446744073709551615";
    let cases: [(&[&str], &str); 2] = [
        (&["--warmup-days", max, "--steps", "10"], "--warmup-days"),
        (&["--steps", max], "--steps"),
    ];
    for (flags, named) in cases {
        let out = fgcs()
            .args(["chaos", "--machines", "1"])
            .args(flags)
            .output()
            .expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{flags:?} printed a report");
        assert!(
            stderr.contains(named) && stderr.contains("overflows"),
            "{flags:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{flags:?}: {stderr}");
    }
}
