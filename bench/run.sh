#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it.
#
#   bench/run.sh [--seed N] [--out FILE] [--sets K] [--smoke]
#       every workload end to end, the traced runs and the layer suite;
#       prints every metric by name with its unit, runs the correctness
#       checks, exits non-zero if one fails
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is one JSON object
#   bench/run.sh layers | manifest | compare A.json B.json
#
# The build goes to $CARGO_TARGET_DIR if set (relative to where this is
# called from, as cargo reads it), else to bench/target. The root
# workspace's Cargo.toml and Cargo.lock are not touched.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/bench" "$@"
