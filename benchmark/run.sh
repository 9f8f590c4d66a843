#!/usr/bin/env bash
# The repository's benchmark, one command:
#
#   benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S]
#                    [--trace 0|1] [--out FILE] [--check]
#   benchmark/run.sh compare A.jsonl B.jsonl
#
# Builds the daemon under test (rpi-queryd, from the repository's own
# workspace) and the harness (this package), then runs the harness.
# Build chatter goes to stderr; the last line of stdout is the result
# object. See README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# One target directory for both builds. A relative CARGO_TARGET_DIR is
# relative to the caller's directory, not to whichever manifest cargo is
# pointed at, so pin it down before cargo runs from anywhere else.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
if [ "${1:-}" = compare ]; then
  exec "$target/release/rpi-benchmark" --spec "$root/BENCHMARK.json" "$@"
fi
cargo build --release --offline --manifest-path "$root/Cargo.toml" \
  -p rpi-query --bin rpi-queryd >&2

# Fixtures, spill directories and traces of this invocation; removed on
# every way out, including Ctrl-C (which also takes the daemon along).
scratch="$here/out/$$"
harness=
cleanup() {
  if [ -n "$harness" ]; then
    pkill -KILL -P "$harness" 2>/dev/null || true
    kill -KILL "$harness" 2>/dev/null || true
  fi
  rm -rf "$scratch"
  rmdir "$here/out" 2>/dev/null || true
}
trap cleanup EXIT
trap 'exit 130' INT TERM

RPI_BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)" \
  "$target/release/rpi-benchmark" \
  --daemon "$target/release/rpi-queryd" \
  --spec "$root/BENCHMARK.json" \
  --scratch "$scratch" \
  "$@" &
harness=$!
status=0
wait "$harness" || status=$?
harness=
exit "$status"
