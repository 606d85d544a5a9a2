#!/bin/sh
# Hermetic CI for the fgcs workspace.
#
# The workspace is std-only: every crate depends only on in-tree path
# crates (see crates/fgcs-runtime), so the whole pipeline runs with an
# empty cargo registry. `--offline` makes any accidental reintroduction
# of an external dependency a hard failure rather than a download.
set -eu

cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --offline --workspace --all-targets -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo check fgcs-runtime without the metrics feature (no-op macro path)"
cargo check -q --offline -p fgcs-runtime --no-default-features

echo "== cargo build --release --offline"
cargo build --release --offline --workspace

echo "== cargo build --release --offline --examples"
cargo build --release --offline --workspace --examples

echo "== fgcs lint (static analysis: determinism, unsafe audit, lock order, no-alloc, hermeticity)"
# Hard gate: any finding that survives lint.allow fails CI. The < 1 s
# budget is asserted by crates/fgcs-lint/tests/workspace_clean.rs.
cargo run -q --release --offline --bin fgcs -- lint --timings

echo "== cargo test -q --offline"
cargo test -q --offline --workspace

echo "== wire benchmark package: build + harness tests (a smoke run of every workload)"
# examples/benchmark is a package of its own (empty [workspace]), so the
# workspace build above never compiles it. Its 18 tests build against the
# serve API and assert zero failed or wrong replies on every workload.
cargo test -q --release --offline --manifest-path examples/benchmark/Cargo.toml

echo "== chaos smoke: fixed-seed fault campaign (invariants enforced by exit code)"
cargo run -q --release --offline --bin fgcs -- \
  chaos --seed 20060625 --steps 2000 --machines 4 > /dev/null

echo "== chaos smoke: zero-fault plan must be bit-identical to the unfaulted pipeline"
zero_out=$(cargo run -q --release --offline --bin fgcs -- \
  chaos --seed 20060625 --steps 2000 --machines 4 --zero-faults)
plain_out=$(cargo run -q --release --offline --bin fgcs -- \
  chaos --seed 20060625 --steps 2000 --machines 4 --no-faults)
if [ "$zero_out" != "$plain_out" ]; then
  echo "zero-fault chaos report diverged from the unfaulted pipeline:"
  echo "  zero-faults: $zero_out"
  echo "  no-faults:   $plain_out"
  exit 1
fi

echo "== serve smoke: TCP server round trip (streamed ingest -> sweep == offline; clean shutdown)"
# The same check over `serve --oneshot` is
# tests/cli.rs::cli_oneshot_serve_matches_offline_sweep_bytes.
fgcs_bin=target/release/fgcs
serve_tmp=$(mktemp -d)
"$fgcs_bin" generate --seed 7 --days 10 --out "$serve_tmp" > /dev/null
"$fgcs_bin" encode "$serve_tmp/machine-0.json" --host 1 > "$serve_tmp/reqs.jsonl"
"$fgcs_bin" sweep "$serve_tmp/machine-0.json" --start 9.0 --hours 2.0 --json \
  > "$serve_tmp/sweep_cli.json"
# Starts `fgcs serve` on an ephemeral port; sets $server_pid and $addr.
start_server() {
  : > "$serve_tmp/server.log"
  timeout 120 "$fgcs_bin" serve --port 0 "$@" > "$serve_tmp/server.log" &
  server_pid=$!
  addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/^listening on //p' "$serve_tmp/server.log" 2>/dev/null || true)
    [ -n "$addr" ] && break
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    echo "server never announced its address:"; cat "$serve_tmp/server.log"; exit 1
  fi
}
start_server --metrics-out metrics_export.json
{
  cat "$serve_tmp/reqs.jsonl"
  echo '{"op":"sweep","host":1,"start":9.0,"hours":2.0,"points":12}'
  echo '{"op":"stats"}'
} | "$fgcs_bin" query "$addr" > "$serve_tmp/tcp_out.jsonl"
echo '{"op":"shutdown"}' | "$fgcs_bin" query "$addr" > /dev/null
if ! wait "$server_pid"; then
  echo "server did not shut down cleanly (timeout or error):"
  cat "$serve_tmp/server.log"
  exit 1
fi
if ! grep '^{"window"' "$serve_tmp/tcp_out.jsonl" | cmp -s - "$serve_tmp/sweep_cli.json"; then
  echo "TCP serve sweep diverged from offline fgcs sweep --json"
  exit 1
fi
grep '"op":"stats"' "$serve_tmp/tcp_out.jsonl" | grep -q '"days":10' || {
  echo "server stats did not account for the 10 streamed ingests:"
  tail -1 "$serve_tmp/tcp_out.jsonl"
  exit 1
}
echo "== serve batch smoke: pipelined batch stream == sequential bytes"
# The same op stream (10 ingests + 2000 predicts) sent two ways against two
# fresh servers: as individual lines, and as 40-op `batch` requests
# pipelined over one TCP connection. The reply streams must be
# byte-identical.
awk 'BEGIN { for (i = 0; i < 2000; i++) {
  start = 6 + (i % 4) * 3;
  printf "{\"op\":\"predict\",\"host\":1,\"start\":%d.0,\"hours\":2.0}\n", start;
} }' > "$serve_tmp/predicts.jsonl"
cat "$serve_tmp/reqs.jsonl" "$serve_tmp/predicts.jsonl" > "$serve_tmp/seq_in.jsonl"
awk 'NR % 40 == 1 { if (NR > 1) print out "]}"; out = "{\"op\":\"batch\",\"ops\":[" $0; next }
     { out = out "," $0 }
     END { if (out != "") print out "]}" }' \
  "$serve_tmp/seq_in.jsonl" > "$serve_tmp/batch_in.jsonl"
start_server
"$fgcs_bin" query --pipelined "$addr" < "$serve_tmp/seq_in.jsonl" > "$serve_tmp/seq_out.jsonl"
echo '{"op":"shutdown"}' | "$fgcs_bin" query "$addr" > /dev/null
wait "$server_pid"
start_server
"$fgcs_bin" query --pipelined "$addr" < "$serve_tmp/batch_in.jsonl" > "$serve_tmp/batch_out.jsonl"
echo '{"op":"shutdown"}' | "$fgcs_bin" query "$addr" > /dev/null
wait "$server_pid"
if ! cmp -s "$serve_tmp/seq_out.jsonl" "$serve_tmp/batch_out.jsonl"; then
  echo "pipelined batch reply stream diverged from sequential requests:"
  diff "$serve_tmp/seq_out.jsonl" "$serve_tmp/batch_out.jsonl" | head -20 || true
  exit 1
fi
echo "== serve chaos smoke: byte-faulted client + kill -9, recovery invariant enforced by exit code"
# The lockstep form (every ingest acked, then kill -9, recovered sweep ==
# offline replay) is tests/recovery.rs::kill_minus_nine_loses_no_acknowledged_ingest.
"$fgcs_bin" chaos --serve --seed 20060625 --machines 3 --days 6

rm -rf "$serve_tmp"

echo "== cargo doc --offline --workspace --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --workspace --no-deps

echo "== bench smoke -> BENCH_baseline.json (hard gates + 1.25x check against the committed baseline)"
# Both files hold ns/op at machine_factor 1.0, so they compare key by key;
# the check runs once.
prev_baseline=$(mktemp)
cp BENCH_baseline.json "$prev_baseline"
cargo run -q --release --offline -p fgcs-bench --bin bench_smoke -- --out BENCH_baseline.json
cargo run -q --release --offline -p fgcs-bench --bin bench_smoke -- \
  --check BENCH_baseline.json --against "$prev_baseline"
rm -f "$prev_baseline"

echo "== wire gate: each examples/benchmark workload once, checked against BENCH_wire.json"
# BENCHMARK.json's command at the settings BENCH_wire.json was measured
# at. Each workload must answer every request correctly, keep rss_mb
# within 1.05x of its committed median and server_cpu_us and setup_s
# within 3x (bench_smoke's module docs give the reasons).
mkdir -p .bench_out
rm -f .bench_out/ci-wire.jsonl
for workload in query_hot ingest_durable day_rollover cold_window; do
  cargo run --release --offline --quiet --manifest-path examples/benchmark/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 15 --trace 0 --json .bench_out/ci-wire.jsonl
done
cargo run -q --release --offline -p fgcs-bench --bin bench_smoke -- \
  --wire .bench_out/ci-wire.jsonl --against BENCH_wire.json

echo "CI OK"
