#!/usr/bin/env bash
# The serving front end across real processes (DESIGN.md §13–14): train a
# small model, serve it on an ephemeral port, hammer it with the load
# generator for ~2 s, then hold 256 and 1024 simultaneous keep-alive
# connections through the event loop before draining via POST /shutdown. The
# load generator exits non-zero unless every client count saw --expect-min-ok
# (default 1) successful predictions; `wait` exits non-zero unless the server
# shut down cleanly. Leaves the server's mphpc.telemetry.jsonl, which CI
# uploads; everything else goes to a temporary directory.
set -euxo pipefail
cd "$(dirname "$0")/../.."
# The 1024-connection row holds ~2100 sockets (client+server) in one process
# tree; the default 1024-fd soft limit is too small.
ulimit -n 8192
cargo build --release -p mphpc-core -p mphpc-serve --bins
BIN="${CARGO_TARGET_DIR:-target}/release"
W=$(mktemp -d)
"$BIN/mphpc" collect --out "$W/smoke.csv" --apps 3 --inputs 1 --reps 1
"$BIN/mphpc" train --dataset "$W/smoke.csv" --out "$W/model.json" --model forest
"$BIN/mphpc" serve --model "$W/model.json" --addr 127.0.0.1:0 --max-conns 2048 \
  --telemetry jsonl > "$W/serve.log" 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$W"' EXIT
ADDR=""
for i in $(seq 1 100); do
  ADDR=$(grep -o 'listening on .*' "$W/serve.log" | awk '{print $3}' || true)
  [ -n "$ADDR" ] && break
  sleep 0.2
done
[ -n "$ADDR" ]
"$BIN/mphpc_loadgen" --addr "$ADDR" --clients 8 --duration-ms 2000 --expect-min-ok 200
"$BIN/mphpc_loadgen" --addr "$ADDR" --clients 256,1024 --duration-ms 2000
"$BIN/mphpc_loadgen" --addr "$ADDR" --clients 4 --duration-ms 500 --no-keepalive \
  --expect-min-ok 50 --shutdown
wait "$SERVE_PID"
cat "$W/serve.log"
# The latency histogram (with p50/p95/p99) and the event-loop counters must
# have reached the JSONL sink.
grep -q 'serve.request_latency_s' mphpc.telemetry.jsonl
grep -q '"p99"' mphpc.telemetry.jsonl
grep -q 'serve.conn.accepted' mphpc.telemetry.jsonl
grep -q 'serve.poll.wakeups' mphpc.telemetry.jsonl
