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

echo "== cargo clippy (bench-harness targets)"
cargo clippy --offline -p fgcs-bench --all-targets --features bench-harness -- -D warnings

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

echo "== serve smoke: oneshot batch sweep must match offline fgcs sweep --json byte-for-byte"
fgcs_bin=target/release/fgcs
serve_tmp=$(mktemp -d)
"$fgcs_bin" generate --seed 7 --days 10 --out "$serve_tmp" > /dev/null
"$fgcs_bin" encode "$serve_tmp/machine-0.json" --host 1 > "$serve_tmp/reqs.jsonl"
{
  cat "$serve_tmp/reqs.jsonl"
  echo '{"op":"sweep","host":1,"start":9.0,"hours":2.0,"points":12}'
  echo '{"op":"shutdown"}'
} | "$fgcs_bin" serve --oneshot > "$serve_tmp/oneshot.jsonl"
grep '^{"window"' "$serve_tmp/oneshot.jsonl" > "$serve_tmp/sweep_serve.json"
"$fgcs_bin" sweep "$serve_tmp/machine-0.json" --start 9.0 --hours 2.0 --json \
  > "$serve_tmp/sweep_cli.json"
if ! cmp -s "$serve_tmp/sweep_serve.json" "$serve_tmp/sweep_cli.json"; then
  echo "oneshot serve sweep diverged from offline fgcs sweep --json:"
  diff "$serve_tmp/sweep_serve.json" "$serve_tmp/sweep_cli.json" || true
  exit 1
fi

echo "== serve smoke: TCP server round trip (streamed ingest -> sweep == offline; clean shutdown)"
timeout 120 "$fgcs_bin" serve --port 0 --metrics-out metrics_export.json \
  > "$serve_tmp/server.log" &
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
grep -q '"log_records":10' "$serve_tmp/tcp_out.jsonl" || {
  echo "server stats did not account for the 10 streamed ingests:"
  tail -1 "$serve_tmp/tcp_out.jsonl"
  exit 1
}
echo "== serve throughput smoke: pipelined batch stream == sequential bytes, ops/sec floor"
# The same op stream (10 ingests + 2000 predicts) sent two ways against two
# fresh servers: as individual lines, and as 40-op `batch` requests
# pipelined over one TCP connection. The reply streams must be
# byte-identical, and the batched run must clear a conservative
# throughput floor (catastrophic-regression tripwire, not a benchmark).
awk 'BEGIN { for (i = 0; i < 2000; i++) {
  start = 6 + (i % 4) * 3;
  printf "{\"op\":\"predict\",\"host\":1,\"start\":%d.0,\"hours\":2.0}\n", start;
} }' > "$serve_tmp/predicts.jsonl"
cat "$serve_tmp/reqs.jsonl" "$serve_tmp/predicts.jsonl" > "$serve_tmp/seq_in.jsonl"
awk 'NR % 40 == 1 { if (NR > 1) print out "]}"; out = "{\"op\":\"batch\",\"ops\":[" $0; next }
     { out = out "," $0 }
     END { if (out != "") print out "]}" }' \
  "$serve_tmp/seq_in.jsonl" > "$serve_tmp/batch_in.jsonl"
wait_for_addr() {
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
start_server() {
  : > "$serve_tmp/server.log"
  timeout 120 "$fgcs_bin" serve --port 0 "$@" > "$serve_tmp/server.log" &
  server_pid=$!
  wait_for_addr
}
start_server
"$fgcs_bin" query --pipelined "$addr" < "$serve_tmp/seq_in.jsonl" > "$serve_tmp/seq_out.jsonl"
echo '{"op":"shutdown"}' | "$fgcs_bin" query "$addr" > /dev/null
wait "$server_pid"
start_server
t0=$(date +%s%N)
"$fgcs_bin" query --pipelined "$addr" < "$serve_tmp/batch_in.jsonl" > "$serve_tmp/batch_out.jsonl"
t1=$(date +%s%N)
echo '{"op":"shutdown"}' | "$fgcs_bin" query "$addr" > /dev/null
wait "$server_pid"
if ! cmp -s "$serve_tmp/seq_out.jsonl" "$serve_tmp/batch_out.jsonl"; then
  echo "pipelined batch reply stream diverged from sequential requests:"
  diff "$serve_tmp/seq_out.jsonl" "$serve_tmp/batch_out.jsonl" | head -20 || true
  exit 1
fi
n_ops=$(wc -l < "$serve_tmp/seq_in.jsonl")
ops_per_sec=$(awk -v n="$n_ops" -v t0="$t0" -v t1="$t1" \
  'BEGIN { printf "%d", n * 1e9 / (t1 - t0) }')
echo "-- $n_ops ops over one pipelined connection: $ops_per_sec ops/sec"
if [ "$ops_per_sec" -lt 500 ]; then
  echo "batched serve throughput $ops_per_sec ops/sec is below the 500 ops/sec floor"
  exit 1
fi
echo "== crash-recovery smoke: kill -9 a durable server mid-stream, recovered sweep == offline replay"
# Stream the first 6 of 10 encoded days into `serve --data-dir` in lockstep
# (every sent day is acknowledged), then SIGKILL the server — no flush, no
# shutdown op. A fresh process recovering from the WAL must hold exactly
# the 6 acknowledged days, and its sweep must be byte-identical to an
# offline oneshot replay of the same 6 ingest lines.
# No `timeout` wrapper here: kill -9 must hit the serve process itself —
# SIGKILLing a wrapper would orphan the server still holding the WAL (and
# this stage's stdio pipes, wedging the CI step).
: > "$serve_tmp/server.log"
"$fgcs_bin" serve --port 0 --data-dir "$serve_tmp/wal" > "$serve_tmp/server.log" &
server_pid=$!
wait_for_addr
head -6 "$serve_tmp/reqs.jsonl" | "$fgcs_bin" query "$addr" > "$serve_tmp/acks.jsonl"
acked=$(grep -c '"ok":true' "$serve_tmp/acks.jsonl")
if [ "$acked" != 6 ]; then
  echo "expected 6 acknowledged ingests before the kill, got $acked:"
  cat "$serve_tmp/acks.jsonl"
  exit 1
fi
kill -9 "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
{
  echo '{"op":"host","host":1}'
  echo '{"op":"sweep","host":1,"start":9.0,"hours":2.0,"points":12}'
} | "$fgcs_bin" serve --oneshot --data-dir "$serve_tmp/wal" > "$serve_tmp/recovered.jsonl"
grep -q '"days":6' "$serve_tmp/recovered.jsonl" || {
  echo "recovered registry does not hold exactly the 6 acknowledged days:"
  cat "$serve_tmp/recovered.jsonl"
  exit 1
}
{
  head -6 "$serve_tmp/reqs.jsonl"
  echo '{"op":"sweep","host":1,"start":9.0,"hours":2.0,"points":12}'
} | "$fgcs_bin" serve --oneshot > "$serve_tmp/replayed.jsonl"
grep '^{"window"' "$serve_tmp/recovered.jsonl" > "$serve_tmp/recovered_sweep.json"
grep '^{"window"' "$serve_tmp/replayed.jsonl" > "$serve_tmp/replay_sweep.json"
if ! cmp -s "$serve_tmp/recovered_sweep.json" "$serve_tmp/replay_sweep.json"; then
  echo "recovered sweep diverged from the offline replay after kill -9:"
  diff "$serve_tmp/recovered_sweep.json" "$serve_tmp/replay_sweep.json" || true
  exit 1
fi

echo "== serve chaos smoke: byte-faulted client + kill -9, recovery invariant enforced by exit code"
"$fgcs_bin" chaos --serve --seed 20060625 --machines 3 --days 6

rm -rf "$serve_tmp"

echo "== cargo doc --offline --workspace --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --workspace --no-deps

echo "== bench smoke -> BENCH_baseline.json (hard fast-path gates + check against the previous baseline)"
prev_baseline=$(mktemp)
cp BENCH_baseline.json "$prev_baseline"
bench_ok=0
for attempt in 1 2 3; do
  cargo run -q --release --offline -p fgcs-bench --bin bench_smoke -- --out BENCH_baseline.json
  # --against flags >1.25x growth on keys present in both baselines; a
  # noisy run can trip it, so retry before declaring a real regression.
  if cargo run -q --release --offline -p fgcs-bench --bin bench_smoke -- \
      --check BENCH_baseline.json --against "$prev_baseline"; then
    bench_ok=1
    break
  fi
  echo "-- regression flagged on attempt $attempt; re-running to rule out noise"
done
rm -f "$prev_baseline"
if [ "$bench_ok" != 1 ]; then
  echo "bench regression persisted across 3 runs"
  exit 1
fi

echo "== scale bench: cluster_serve at 100k hosts, p50/p99 merged into BENCH_baseline.json"
cargo run -q --release --offline -p fgcs-bench --bin cluster_serve -- \
  --hosts 100000 --merge BENCH_baseline.json
cargo run -q --release --offline -p fgcs-bench --bin bench_smoke -- --check BENCH_baseline.json

echo "CI OK"
