#!/usr/bin/env bash
# transport_smoke.sh: the multi-process loopback deployment as one command.
#
# Starts three spider_node processes (checker AS2, recorder AS5, proof
# generator 905) on ephemeral loopback ports, then drives them with
# spider_loadgen: three measured update bursts for ingest rate, six
# commit-latency rounds, and a four-round pipelined proof-request ->
# check-request verification session.
# The loadgen's kShutdown frames stop all three nodes; this script only
# reaps them.  Exits non-zero if any process fails or verification is not
# clean (the loadgen exits 1 on a dirty verdict).
#
# Usage: tools/transport_smoke.sh [build-dir] [out.json]
#   build-dir  defaults to ./build
#   out.json   defaults to BENCH_transport.json in the working directory
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_JSON="${2:-BENCH_transport.json}"
BIN="$BUILD_DIR/tools"
UPDATES="${SMOKE_UPDATES:-100000}"
PREFIXES="${SMOKE_PREFIXES:-4096}"
# Equivalence classes per commitment; must agree across every process
# (recorder promise, checker promise, proofgen shadow recorder).  16 keeps
# the per-commit MTT labeling off the ingest path's critical measurements.
CLASSES="${SMOKE_CLASSES:-16}"

for exe in spider_node spider_loadgen; do
  [ -x "$BIN/$exe" ] || { echo "transport_smoke: missing $BIN/$exe (build first)" >&2; exit 2; }
done

WORK="$(mktemp -d)"
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

wait_port() { # port-file -> port number, polling up to ~5s
  for _ in $(seq 100); do
    [ -s "$1" ] && { cat "$1"; return 0; }
    sleep 0.05
  done
  echo "transport_smoke: timed out waiting for $1" >&2
  return 1
}

"$BIN/spider_node" --role checker --as 2 --neighbor 5 \
    --num-classes "$CLASSES" --listen 0 --port-file "$WORK/checker.port" \
    >"$WORK/checker.log" 2>&1 &
PIDS+=($!)
CPORT="$(wait_port "$WORK/checker.port")"

"$BIN/spider_node" --role recorder --as 5 --neighbor 2 \
    --num-classes "$CLASSES" --listen 0 --port-file "$WORK/recorder.port" \
    --peer "2:127.0.0.1:$CPORT" --trust 905 \
    --commit-interval-ms 500 --batch-window-ms 10 \
    >"$WORK/recorder.log" 2>&1 &
PIDS+=($!)
RPORT="$(wait_port "$WORK/recorder.port")"

"$BIN/spider_node" --role proofgen --id 905 --neighbor 2 \
    --num-classes "$CLASSES" --listen 0 --port-file "$WORK/proofgen.port" \
    --peer "5:127.0.0.1:$RPORT" --elector 5 \
    --commit-interval-ms 500 --batch-window-ms 10 \
    >"$WORK/proofgen.log" 2>&1 &
PIDS+=($!)
PPORT="$(wait_port "$WORK/proofgen.port")"

echo "transport_smoke: checker :$CPORT  recorder :$RPORT  proofgen :$PPORT"

status=0
"$BIN/spider_loadgen" \
    --recorder "5:127.0.0.1:$RPORT" \
    --checker "2:127.0.0.1:$CPORT" \
    --proofgen "905:127.0.0.1:$PPORT" \
    --updates "$UPDATES" --prefixes "$PREFIXES" --num-classes "$CLASSES" \
    --out "$OUT_JSON" || status=$?

# The loadgen's shutdown frames end the nodes; give them a moment, then
# insist they exited cleanly.
for pid in "${PIDS[@]}"; do
  for _ in $(seq 100); do kill -0 "$pid" 2>/dev/null || break; sleep 0.05; done
  if kill -0 "$pid" 2>/dev/null; then
    echo "transport_smoke: pid $pid did not exit after shutdown" >&2
    status=3
  else
    wait "$pid" || { echo "transport_smoke: pid $pid exited non-zero" >&2; status=3; }
  fi
done
PIDS=()

echo "--- node logs ---"
tail -n 3 "$WORK"/checker.log "$WORK"/recorder.log "$WORK"/proofgen.log || true
[ "$status" -eq 0 ] && echo "transport_smoke: OK ($OUT_JSON)"
exit "$status"
