#!/bin/sh
# Tier-1 tests (`cargo test -q`) in a container without crates.io: the root
# workspace resolves `rand` / `serde` / `serde_json` to the stand-ins the
# benchmark already carries under perf/stubs/ and `proptest` to the one
# beside this script. Arguments go to `cargo test` (before any `--`):
#
#   tools/offline/test.sh -q                 # everything, ~8 min cold
#   tools/offline/test.sh -p mphpc-sched     # one crate
#   CARGO_TARGET_DIR=/somewhere/else tools/offline/test.sh -q
#
# With a network, plain `cargo test -q` runs the published crates instead.
cd "$(dirname "$0")/../.." || exit 1
[ "$#" -gt 0 ] || set -- --workspace -q
cargo test --offline \
  --config 'patch.crates-io.rand.path="perf/stubs/rand"' \
  --config 'patch.crates-io.serde.path="perf/stubs/serde"' \
  --config 'patch.crates-io.serde_json.path="perf/stubs/serde_json"' \
  --config 'patch.crates-io.proptest.path="tools/offline/proptest"' \
  "$@"
status=$?
# The lock file this resolution wrote names the stand-ins; it is not tracked
# and must not survive into a build that can reach the real crates.
rm -f Cargo.lock
exit $status
