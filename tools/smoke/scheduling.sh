#!/usr/bin/env bash
# The scheduling engine end to end against a real out-of-process serving
# endpoint (DESIGN.md §17): 100k jobs, every RPV the scheduler needs fetched
# over the keep-alive/pipelined HTTP hot path from a live `mphpc serve`, with
# the local predictor as degradation fallback. Identity with the test-only
# oracle engine lives in mphpc-sched's own suite (crates/sched/src/reference.rs);
# inline == precomputed RPVs and federation fallback correctness in
# tests/sched_scale.rs; this smoke proves the wiring across real processes and
# that the federation telemetry flows. Leaves sched.telemetry.jsonl, which CI
# uploads; everything else goes to a temporary directory. Needs jq.
set -euxo pipefail
cd "$(dirname "$0")/../.."
cargo build --release -p mphpc-core -p mphpc-bench --bins
BIN="${CARGO_TARGET_DIR:-target}/release"
W=$(mktemp -d)
"$BIN/mphpc" collect --out "$W/base.csv" --apps 3 --inputs 2 --reps 1 --seed 903
"$BIN/mphpc" train --dataset "$W/base.csv" --out "$W/model.json" --model gbt --seed 903
"$BIN/mphpc" serve --model "$W/model.json" --addr 127.0.0.1:0 > "$W/serve.log" 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$W"' EXIT
ADDR=""
for i in $(seq 1 100); do
  ADDR=$(grep -o 'listening on .*' "$W/serve.log" | awk '{print $3}' || true)
  [ -n "$ADDR" ] && break
  sleep 0.2
done
[ -n "$ADDR" ]
MPHPC_TELEMETRY_OUT=sched.telemetry.jsonl \
  "$BIN/mphpc_exp" sched_scale --jobs 100000 --size small \
    --federate --addr "$ADDR" --telemetry jsonl | tee "$W/scale.log"
kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" || true
# Five strategies, every lookup answered by the server (not one row by the
# fallback), latency measured.
grep -q 'Figs. 7–8 @ scale' "$W/scale.log"
grep -q 'Predictor federation' "$W/scale.log"
grep -q 'sched.federation.requests' sched.telemetry.jsonl
grep -q 'sched.federation.rows' sched.telemetry.jsonl
grep -q 'sched.federation.sent_rows' sched.telemetry.jsonl
grep -q 'sched.federation.lookup_us' sched.telemetry.jsonl
# The printed tables are `"type":"table"` records of the same file: five
# strategy rows, and a federation row that never fell back (the fallback
# counter is only written when it moves) and sent a repeated row once per
# decision point: the 100k jobs are sampled from the small dataset's 288 rows.
jq -es 'map(select(.type == "table" and (.title | startswith("Figs. 7–8 @ scale"))))
  | length == 1 and (.[0].rows | length == 5 and any(.[0] == "Model-based"))' sched.telemetry.jsonl
jq -es 'map(select(.type == "table" and (.title | startswith("Predictor federation"))))
  | length == 1 and (.[0] | [.header, .rows[0]] | transpose | map({(.[0]): .[1]}) | add
    | .["fallback rows"] == "0" and .degraded == "false"
      and (.["rows sent"] | tonumber) < (.rows | tonumber))' sched.telemetry.jsonl
jq -es 'any(.name? == "sched.federation.fallbacks") | not' sched.telemetry.jsonl
