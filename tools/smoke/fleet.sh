#!/usr/bin/env bash
# The profiling fleet across real processes (DESIGN.md §15): three workers
# over a shared store, one rigged to hang heartbeat-free the moment it claims
# shard 0 and SIGKILLed mid-shard. The survivors must reclaim the stale lease
# and finish the campaign, and the merged dataset and trained model must be
# byte-identical to the single-process `collect` / `train` outputs. Telemetry
# must show the claim lifecycle. Leaves fleet.telemetry.jsonl, which CI
# uploads; the store and everything else go to a temporary directory.
set -euxo pipefail
cd "$(dirname "$0")/../.."
cargo build --release -p mphpc-core --bins
M="${CARGO_TARGET_DIR:-target}/release/mphpc"
W=$(mktemp -d)
STORE="$W/store"
PIDS=()
trap 'kill -9 "${PIDS[@]}" 2>/dev/null || true; rm -rf "$W"' EXIT
SHAPE="--apps 2 --inputs 2 --reps 2 --seed 4242"
$M fleet init --store "$STORE" $SHAPE --shards 3 --ttl-ms 600 --model gbt
MPHPC_FLEET_STALL_SHARD=0 MPHPC_FLEET_STALL_MS=600000 \
  $M fleet work --store "$STORE" --worker victim &
VICTIM=$!
PIDS+=("$VICTIM")
for i in $(seq 1 300); do
  [ -e "$STORE/gen-0/claims/shard-0000" ] && break
  sleep 0.1
done
[ -e "$STORE/gen-0/claims/shard-0000" ]
kill -9 "$VICTIM"
wait "$VICTIM" || true
# SIGKILL ran no cleanup: the claim is orphaned, no result exists.
test ! -e "$STORE/gen-0/shards/shard-0000"
MPHPC_TELEMETRY_OUT="$W/w1.telemetry.jsonl" \
  $M fleet work --store "$STORE" --worker w1 --telemetry jsonl &
W1=$!
MPHPC_TELEMETRY_OUT="$W/w2.telemetry.jsonl" \
  $M fleet work --store "$STORE" --worker w2 --telemetry jsonl &
W2=$!
PIDS+=("$W1" "$W2")
wait "$W1"
wait "$W2"
$M fleet status --store "$STORE"
$M fleet merge --store "$STORE" --out "$W/fleet.csv" --model-out "$W/fleet-model.json"
$M collect --out "$W/ref.csv" $SHAPE
$M train --dataset "$W/ref.csv" --out "$W/ref-model.json" --model gbt --seed 4242
cmp "$W/fleet.csv" "$W/ref.csv"
cmp "$W/fleet-model.json" "$W/ref-model.json"
cat "$W/w1.telemetry.jsonl" "$W/w2.telemetry.jsonl" > fleet.telemetry.jsonl
grep -q 'fleet.shard.claimed' fleet.telemetry.jsonl
grep -q 'fleet.shard.completed' fleet.telemetry.jsonl
grep -q 'fleet.shard.reclaimed' fleet.telemetry.jsonl
