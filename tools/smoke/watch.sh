#!/usr/bin/env bash
# The online-learning loop end to end across real processes (DESIGN.md §16):
# serve a forest model, keep mirrored traffic flowing with the load
# generator, publish a fresh shard into the store the way a fleet worker
# would, and run `mphpc watch` for a few ticks. The watcher must ingest the
# shard, commit dataset v1, warm-start a candidate, score it on mirrored
# traffic and promote it to registry v2, visibly, on stdout. The holdout
# gate, refusal and rollback arms are covered by tests/online_loop.rs; this
# smoke proves the daemon wiring (CLI, store tailing, HTTP gates, telemetry)
# against real processes. Leaves watch.telemetry.jsonl, which CI uploads;
# everything else goes to a temporary directory.
set -euxo pipefail
cd "$(dirname "$0")/../.."
cargo build --release -p mphpc-core -p mphpc-serve --bins
BIN="${CARGO_TARGET_DIR:-target}/release"
M="$BIN/mphpc"
W=$(mktemp -d)
PIDS=()
trap 'kill "${PIDS[@]}" 2>/dev/null || true; rm -rf "$W"' EXIT
$M collect --out "$W/base.csv" --apps 3 --inputs 2 --reps 1 --seed 901
$M train --dataset "$W/base.csv" --out "$W/model.json" --model forest --seed 901
$M serve --model "$W/model.json" --addr 127.0.0.1:0 > "$W/serve.log" 2>&1 &
SERVE_PID=$!
PIDS+=("$SERVE_PID")
ADDR=""
for i in $(seq 1 100); do
  ADDR=$(grep -o 'listening on .*' "$W/serve.log" | awk '{print $3}' || true)
  [ -n "$ADDR" ] && break
  sleep 0.2
done
[ -n "$ADDR" ]
# Mirrored traffic for the shadow gate.
"$BIN/mphpc_loadgen" --addr "$ADDR" --clients 2 --duration-ms 30000 &
LOADGEN=$!
PIDS+=("$LOADGEN")
# Publish a fresh shard the way a fleet worker would.
STORE="$W/store"
mkdir -p "$STORE/gen-1/shards"
$M collect --out "$STORE/gen-1/shards/shard-0000" --apps 3 --inputs 2 --reps 1 --seed 902
MPHPC_TELEMETRY_OUT=watch.telemetry.jsonl \
  $M watch --store "$STORE" --model "$W/model.json" --addr "$ADDR" \
    --ticks 3 --poll-ms 200 --holdout 36 --epsilon 0.25 --extra 8 \
    --min-shadow-rows 8 --shadow-wait-ms 10000 \
    --rollback-window-ms 500 --rollback-errors 100 \
    --telemetry jsonl | tee "$W/watch.log"
grep -q 'promoted v2 after' "$W/watch.log"
kill "$LOADGEN" 2>/dev/null || true
wait "$LOADGEN" || true
kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" || true
# The committed artifacts and the loop's counters are durable.
test -e "$STORE/watch/dataset.current"
test -e "$STORE/watch/model.json"
grep -q 'watch.shards_ingested' watch.telemetry.jsonl
grep -q 'watch.promotions' watch.telemetry.jsonl
