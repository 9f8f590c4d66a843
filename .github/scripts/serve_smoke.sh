#!/usr/bin/env bash
# Shared harness for CI's TCP serve smokes.
#
# Source this file (`source .github/scripts/serve_smoke.sh`) and compose
# the helpers — the scale and metrics smoke steps run the same lifecycle
# (the golden-diff smokes — archive, network, tier, live — are `cargo
# test` cases in `crates/query/tests/smoke.rs`):
#
#   serve_start <logfile> <listen-addr> [daemon args...]
#       Start rpi-queryd in the background (stderr -> logfile), wait for
#       its "serving on" readiness banner (150 x 0.2s). Sets SERVE_PID
#       / SERVE_LOG.
#   serve_script <addr> <script> <outfile>
#       Drive a query script over TCP via serve-load, responses to
#       outfile.
#   serve_golden <addr> <script> <golden>
#       serve_script + byte diff against a committed golden.
#   serve_stop <addr> [final-grep]
#       Send the shutdown verb, wait for a clean exit (exit 0), grep the
#       log for the stats snapshot (default "served ").
#   serve_daemon_pid
#       The actual rpi-queryd pid (deepest descendant of SERVE_PID,
#       under the timeout/cargo wrappers) — for /proc CPU accounting.
#
# Helpers run under the step's own shell so `wait` sees the daemon as a
# child; every external command is timeout-wrapped so a hung server
# fails the job instead of wedging it.

set -euo pipefail

RPI_QUERYD=${RPI_QUERYD:-"cargo run --release -p rpi-query --bin rpi-queryd --"}
RPI_SERVE_LOAD=${RPI_SERVE_LOAD:-"cargo run --release -p rpi-bench --bin serve-load --"}

serve_start() {
  SERVE_LOG=$1
  local addr=$2
  shift 2
  # shellcheck disable=SC2086 # RPI_QUERYD is a command line, not a path
  timeout 120 $RPI_QUERYD "$@" --listen "$addr" 2> "$SERVE_LOG" &
  SERVE_PID=$!
  for _ in $(seq 1 150); do
    grep -q "serving on" "$SERVE_LOG" && break
    kill -0 "$SERVE_PID" || { cat "$SERVE_LOG"; return 1; }
    sleep 0.2
  done
  grep "serving on" "$SERVE_LOG"
}

serve_script() {
  # shellcheck disable=SC2086
  timeout 60 $RPI_SERVE_LOAD --addr "$1" --script "$2" > "$3"
}

serve_golden() {
  local out
  out=$(mktemp)
  serve_script "$1" "$2" "$out"
  diff -u "$3" "$out"
}

serve_stop() {
  # shellcheck disable=SC2086
  timeout 30 $RPI_SERVE_LOAD --addr "$1" --shutdown
  wait "$SERVE_PID"
  grep "${2:-served }" "$SERVE_LOG"
}

serve_daemon_pid() {
  local pid=$SERVE_PID child
  while child=$(pgrep -P "$pid" 2>/dev/null | head -n1); [ -n "$child" ]; do
    pid=$child
  done
  echo "$pid"
}
