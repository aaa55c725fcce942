#!/usr/bin/env bash
# The claim gate: every experiment of the registry at small size. `mphpc_exp`
# exits 1 on an experiment that fails or a claim that is false at a size its
# `min_size` admits, so this script does. Leaves the run's telemetry — every
# printed table, the claims table included, as `"type":"table"` records — in
# $MPHPC_TELEMETRY_OUT (default mphpc_exp.telemetry.jsonl), which CI uploads.
set -euo pipefail
cd "$(dirname "$0")/../.."
cargo build --release -p mphpc-bench
"${CARGO_TARGET_DIR:-target}/release/mphpc_exp" all --size small --seed 3 --jobs 100000 --telemetry jsonl
grep -q '"type":"table","title":"claims"' "${MPHPC_TELEMETRY_OUT:-mphpc_exp.telemetry.jsonl}"
