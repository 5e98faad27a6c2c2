#!/usr/bin/env bash
# Serving-mode smoke: boot `selfstab-sim serve`, poll /healthz until the
# world is live, scrape /metrics (including the step-phase histograms
# from the instrumentation collector and the dropped-tick counter), fetch
# the streamed /state document, fetch a Chrome trace over POST /trace, take a 1-second CPU profile through the -pprof endpoints,
# inject a regional crash and a journal op over HTTP, checkpoint to disk
# and find both in the journal, and verify a clean SIGTERM drain (including the drain snapshot) within a timeout.
# This gates wiring, not timing.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR=127.0.0.1:18650
DIR="$(mktemp -d)"
PID=""
cleanup() {
  [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

go build -o "$DIR/selfstab-sim" ./cmd/selfstab-sim
"$DIR/selfstab-sim" serve -nodes 300 -addr "$ADDR" -sps 50 -preload churn \
  -snapshot-dir "$DIR/snaps" -drain-snapshot -pprof &
PID=$!

# Boot can take a moment: the world cold-stabilizes before serving.
up=""
for _ in $(seq 1 120); do
  if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then up=1; break; fi
  if ! kill -0 "$PID" 2>/dev/null; then echo "server died during boot" >&2; exit 1; fi
  sleep 0.5
done
[ -n "$up" ] || { echo "server never became healthy" >&2; exit 1; }

curl -fsS "http://$ADDR/healthz" | grep -q '"ok": true'

# The instrumentation layer: phase histograms and engine counters from
# the attached collector, plus the convergence and SSE-pressure blocks.
# The world answers /healthz before its first served step, and the phase
# histograms appear only once a step has been recorded, so poll until the
# step histogram counts one (bounded like the boot loop).
# (Fetched and matched from a here-string: under pipefail, curl piped
# into grep -q fails whenever grep matches and exits before curl is done.)
stepped=""
for _ in $(seq 1 40); do
  METRICS="$(curl -fsS "http://$ADDR/metrics")"
  if grep -Eq '^selfstab_step_duration_seconds_count [1-9]' <<<"$METRICS"; then stepped=1; break; fi
  sleep 0.25
done
[ -n "$stepped" ] || { echo "no served step was recorded in /metrics" >&2; exit 1; }
grep -q '^selfstab_step_count' <<<"$METRICS"
grep -q '^selfstab_step_duration_seconds_bucket' <<<"$METRICS"
grep -q 'selfstab_phase_duration_seconds_bucket{phase="churn"' <<<"$METRICS"
grep -q '^selfstab_engine_frontier_len' <<<"$METRICS"
grep -q '^selfstab_convergence_episodes_total' <<<"$METRICS"
grep -q '^selfstab_sse_dropped_frames_total' <<<"$METRICS"
# The stepper's own count of ticks it lost to overrunning steps or lock holders.
grep -q '^selfstab_ticks_dropped_total' <<<"$METRICS"

# /state is streamed one node per line by a hand-written encoder: the
# document must still be JSON, with the 300 nodes (and any churn arrivals).
curl -fsS "http://$ADDR/state" -o "$DIR/state.json"
[ "$(grep -c '^{"id":' "$DIR/state.json")" -ge 300 ] || { echo "/state does not list 300 nodes, one per line" >&2; exit 1; }
if command -v python3 >/dev/null; then
  python3 -m json.tool "$DIR/state.json" >/dev/null
fi

# A Chrome trace of recent steps over HTTP: well-formed JSON with spans.
curl -fsS -X POST "http://$ADDR/trace?last=50" -o "$DIR/trace.json"
grep -q '"traceEvents"' "$DIR/trace.json"
grep -q '"name":"step"' "$DIR/trace.json"
if command -v python3 >/dev/null; then
  python3 -m json.tool "$DIR/trace.json" >/dev/null
fi

# Live profiling behind -pprof: a 1-second CPU profile comes back non-empty.
curl -fsS "http://$ADDR/debug/pprof/profile?seconds=1" -o "$DIR/cpu.pprof"
[ -s "$DIR/cpu.pprof" ] || { echo "empty CPU profile from /debug/pprof" >&2; exit 1; }
curl -fsS -X POST -d '{"kind":"crash_region","x":0.5,"y":0.5,"radius":0.15}' \
  "http://$ADDR/inject" | grep -q '"kind": "crash_region"'
# A journal op is posted as the journal records it.
curl -fsS -X POST -d '{"kind":"inject_faults","frac":0.2}' \
  "http://$ADDR/inject" | grep -q '"kind": "inject_faults"'
curl -fsS -X POST "http://$ADDR/snapshot" | grep -q '"path"'
# The checkpoint journals the posted op as sent, and the regional crash
# as the explicit crash_nodes it resolved to.
SNAP="$(ls "$DIR/snaps"/snapshot-step*.json)"
grep -q '"kind": "inject_faults"' "$SNAP"
grep -q '"kind": "crash_nodes"' "$SNAP"

sleep 0.5 # let the world step past the explicit checkpoint before draining
kill -TERM "$PID"
drained=""
for _ in $(seq 1 40); do
  if ! kill -0 "$PID" 2>/dev/null; then drained=1; break; fi
  sleep 0.25
done
[ -n "$drained" ] || { echo "server did not drain on SIGTERM" >&2; exit 1; }
wait "$PID" || { echo "server exited non-zero" >&2; exit 1; }
PID=""
# The drain snapshot (beyond the explicit POST /snapshot one) landed too.
count=$(ls "$DIR/snaps"/snapshot-step*.json | wc -l)
[ "$count" -ge 2 ] || { echo "expected a drain snapshot, found $count file(s)" >&2; exit 1; }
echo "serve smoke OK"
