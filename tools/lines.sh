#!/usr/bin/env bash
# The line counts every simplicity item is judged by, from the repository
# root or anywhere inside it:
#   1. non-test `crates/*/src`: each `.rs` file counted up to (not
#      including) its first `#[cfg(test)]` line, summed;
#   2. the net change since f296c1e over crates, tests and examples.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

find crates/*/src -name '*.rs' -print0 | sort -z |
    xargs -0 awk 'FNR == 1 { t = 0 } /#\[cfg\(test\)\]/ { t = 1 } !t { n++ } END { print "non-test crates/*/src:", n }'
echo "since f296c1e:$(git diff --shortstat f296c1e -- crates tests examples)"
