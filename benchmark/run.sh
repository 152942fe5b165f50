#!/usr/bin/env bash
# The BENCHMARK.json command: builds the benchmark package (offline, release)
# and runs it with the arguments given, e.g.
#
#   bash benchmark/run.sh --workload walk_heavy --seed 1 --seconds 25 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR if set, otherwise to the repo's
# existing target/. Everything the run writes (store directories, the trace
# file) goes under benchmark/out/, which the binary empties when it starts
# and whose store directories it removes again before it exits.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml" >&2
case "$CARGO_TARGET_DIR" in
  /*) bin="$CARGO_TARGET_DIR/release/atscale-benchmark" ;;
  *) bin="$PWD/$CARGO_TARGET_DIR/release/atscale-benchmark" ;;
esac
exec "$bin" --out "$here/out" "$@"
