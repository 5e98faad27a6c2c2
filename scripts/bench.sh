#!/usr/bin/env bash
# bench.sh — the repo's performance trajectory harness.
#
# Runs go vet and the race-instrumented determinism and equivalence
# tests (the safety net for the parallel step engine, the frontier
# worklist engine, the traffic data plane, the churn subsystem and the
# energy subsystem), then benchmarks the core packages with -benchmem
# and records every sample in BENCH_step.json — including the
# BenchmarkPhaseBreakdown rows attributing the 1000-node step cost to
# its churn/frame/ingest phases via the instrumentation collector, the
# layer rows under a saturated step (BenchmarkIngest at degree 10|31 for
# a row heard unchanged, with new scalars and with new lists;
# BenchmarkCountLinks at degree 10|31), the link-count upkeep row
# (BenchmarkLinkUpkeep at degree 10|31 with one sender or every sender
# relisting), and
# the layer rows under the serve workload's slow reads
# (BenchmarkComputeStats and BenchmarkCheckInvariants at n=1000|50000,
# BenchmarkHandleState/n=50000) — plus
# the routing/traffic
# suite (with BenchmarkFlatDist, the stretch baseline's 700 queries at
# n=2000|20000, BenchmarkTrafficStep/n=20000, the forwarding layer at
# the dataplane workload's size and flow mix, and BenchmarkNextHop/n=20000,
# the routing calls that flow mix makes) in BENCH_traffic.json, the churn suite in BENCH_churn.json, the
# energy suite (BenchmarkEnergyStep at n=1000|20000|50000, the sizes the
# battery pass runs at) in BENCH_energy.json and the scale suite (quiescent
# frontier stepping, perturbed 100k step with a worklist-size sweep,
# saturated frontier, the 10k full-corruption recovery round
# at one and two workers, slot compaction, and — behind BENCH_1M=1 — the
# million-node scenario) in BENCH_scale.json — so successive runs
# can be compared
# (benchstat on the raw text, or any tool on the JSON).
#
# Every file starts with its provenance: the commit the tree was at
# ("+dirty" when it had uncommitted changes), GOMAXPROCS, the Go version
# and the CPU model ("unknown" when /proc/cpuinfo names none), as
# "key: value" configuration lines in the raw text and as header fields
# of the JSON object whose "samples" array holds the rows. Benchmark
# names are recorded without the -GOMAXPROCS suffix, so a row keeps its
# key across hosts and the header says which host shape it came from.
#
# After generating the fresh numbers, a regression gate compares the
# median ns/op of every step-time (the traffic and energy step rows
# among them), heal-round, ingest, link-count, link-upkeep,
# flat-distance, next-hop and serve-layer benchmark ($GATE_MATCH) against
# the committed BENCH_*.json baselines captured at script start and fails
# the run on a >20% regression (scripts/benchgate; baselines recorded at a
# different GOMAXPROCS are reported and skipped, not compared). The gate
# runs on all five files and prints every verdict before it fails, so one
# regressed file does not hide the others. Set SKIP_BENCH_GATE=1 to
# record a new baseline through a known regression.
#
# Usage: scripts/bench.sh [count]
#   count        benchmark repetitions per benchmark (default 5)
#   SCALE_COUNT  repetitions for the expensive 100k suite (default 3)
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${1:-5}"
PKGS=(./internal/runtime ./internal/topology ./internal/cluster ./internal/serve)
RAW="BENCH_step.txt"
JSON="BENCH_step.json"
TRAFFIC_RAW="BENCH_traffic.txt"
TRAFFIC_JSON="BENCH_traffic.json"
CHURN_RAW="BENCH_churn.txt"
CHURN_JSON="BENCH_churn.json"
ENERGY_RAW="BENCH_energy.txt"
ENERGY_JSON="BENCH_energy.json"
SCALE_RAW="BENCH_scale.txt"
SCALE_JSON="BENCH_scale.json"
SCALE_COUNT="${SCALE_COUNT:-3}"
# The benchmarks the regression gate compares, by name.
GATE_MATCH='Step|TrafficStep|EnergyStep|HealRound|Ingest|CountLinks|LinkUpkeep|FlatDist|NextHop|ComputeStats|CheckInvariants|HandleState'

# Capture the committed baselines before anything overwrites them: these
# are what the regression gate at the end compares against.
BASELINE_DIR="$(mktemp -d)"
trap 'rm -rf "$BASELINE_DIR"' EXIT
for f in "$JSON" "$TRAFFIC_JSON" "$CHURN_JSON" "$ENERGY_JSON" "$SCALE_JSON"; do
    [ -f "$f" ] && cp "$f" "$BASELINE_DIR/$f"
done

echo "== go vet" >&2
go vet ./...

echo "== race-instrumented determinism tests" >&2
go test -race -run 'TestParallelDeterminism|TestEngineChurnParallelDeterminism|TestParallelMatchesSequentialStabilization|TestForEachVisitsEachNodeOnce|TestSparseMatchesDenseMixedTrace|TestCachedLinkCountMatchesRecount|TestLinkCountCutOver|TestIngestMatchesReference|TestStepProbeDisabledZeroAlloc|TestStepErrorKeepsProbeStreamSound' ./internal/runtime
go test -race -run 'TestDeterminismMatrix|TestSnapshotReplayOracle' .

# Provenance, written at the head of every raw file in the benchmark
# format's own "key: value" configuration syntax.
COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [ "$COMMIT" != unknown ] && [ -n "$(git status --porcelain --untracked-files=no)" ]; then
    COMMIT="$COMMIT+dirty"
fi
export GOMAXPROCS="${GOMAXPROCS:-$(nproc)}"
GOVERSION="$(go env GOVERSION)"
CPUMODEL="$(awk -F': *' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)"
CPUMODEL="${CPUMODEL:-unknown}"
provenance() {
    echo "commit: $COMMIT"
    echo "gomaxprocs: $GOMAXPROCS"
    echo "goversion: $GOVERSION"
    echo "cpumodel: $CPUMODEL"
}

echo "== benchmarks (count=$COUNT)" >&2
{ provenance; go test -run '^$' -bench . -benchmem -count "$COUNT" "${PKGS[@]}"; } | tee "$RAW"

echo "== traffic + routing benchmarks (count=$COUNT)" >&2
{ provenance; go test -run '^$' -bench 'BenchmarkRouteCached|BenchmarkTrafficStep|BenchmarkFlatDist|BenchmarkNextHop' \
    -benchmem -count "$COUNT" .; } | tee "$TRAFFIC_RAW"

echo "== churn benchmarks (count=$COUNT)" >&2
{ provenance; go test -run '^$' -bench 'BenchmarkChurnStep1000' \
    -benchmem -count "$COUNT" .; } | tee "$CHURN_RAW"

echo "== energy benchmarks (count=$COUNT)" >&2
{ provenance; go test -run '^$' -bench 'BenchmarkEnergyStep' \
    -benchmem -count "$COUNT" .; } | tee "$ENERGY_RAW"

echo "== scale benchmarks (count=$SCALE_COUNT)" >&2
{ provenance; SELFSTAB_SCALE_BENCH=1 go test -run '^$' -bench 'BenchmarkQuiescentStep|BenchmarkStep100k|BenchmarkStepSaturated|BenchmarkHealRound10k|BenchmarkCompact' \
    -benchmem -benchtime 0.5s -count "$SCALE_COUNT" -timeout 60m ./internal/runtime; } | tee "$SCALE_RAW"

# The million-node tier is opt-in on top of the scale suite: setup alone
# costs tens of seconds and over a gigabyte of heap, so the CI smoke tier
# (and a default bench.sh run) never touches it. Set BENCH_1M=1 to append
# its rows.
if [ "${BENCH_1M:-0}" = "1" ]; then
    echo "== million-node benchmarks (count=1)" >&2
    SELFSTAB_SCALE_BENCH=1 SELFSTAB_SCALE_BENCH_1M=1 go test -run '^$' -bench 'BenchmarkStep1M' \
        -benchmem -benchtime 5x -count 1 -timeout 120m ./internal/runtime | tee -a "$SCALE_RAW"
fi

# bench_to_json converts a raw file into a JSON object: the provenance
# header, then one sample per benchmark line. Lines look like:
#   BenchmarkStep1000-2   232   4536778 ns/op   64 B/op   2 allocs/op
# (memory columns are absent for benchmarks without -benchmem metrics;
# the -GOMAXPROCS suffix is absent at GOMAXPROCS=1 and dropped otherwise).
bench_to_json() {
awk '
BEGIN { first = 1 }
# quote makes s a JSON string; it drops quotes and backslashes, which no
# commit, Go version or CPU model needs.
function quote(s) { gsub(/["\\]/, "", s); return "\"" s "\"" }
function header() {
    printf "{\"commit\": %s, \"gomaxprocs\": %d, \"goversion\": %s, \"cpumodel\": %s, \"samples\": [\n",
        quote(commit), procs, quote(gover), quote(cpu)
}
/^commit: / { commit = $2 }
/^gomaxprocs: / { procs = $2; suffix = "-" procs "$" }
/^goversion: / { gover = $2 }
/^cpumodel: / { cpu = substr($0, length("cpumodel: ") + 1) }
/^pkg: / { pkg = $2 }
/^Benchmark/ {
    if (first) header()
    name = $1; iters = $2; ns = ""; bytes = ""; allocs = ""
    if (procs > 1) sub(suffix, "", name)
    for (i = 3; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i - 1)
        if ($i == "B/op")      bytes = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
    }
    if (!first) printf ",\n"
    first = 0
    printf "  {\"package\": \"%s\", \"name\": \"%s\", \"iterations\": %s", pkg, name, iters
    if (ns != "")     printf ", \"ns_per_op\": %s", ns
    if (bytes != "")  printf ", \"bytes_per_op\": %s", bytes
    if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
    printf "}"
}
END { if (first) header(); print "\n]}" }
' "$1"
}

bench_to_json "$RAW" > "$JSON"
bench_to_json "$TRAFFIC_RAW" > "$TRAFFIC_JSON"
bench_to_json "$CHURN_RAW" > "$CHURN_JSON"
bench_to_json "$ENERGY_RAW" > "$ENERGY_JSON"
bench_to_json "$SCALE_RAW" > "$SCALE_JSON"

echo "== wrote $RAW, $JSON, $TRAFFIC_RAW, $TRAFFIC_JSON, $CHURN_RAW, $CHURN_JSON, $ENERGY_RAW, $ENERGY_JSON, $SCALE_RAW and $SCALE_JSON" >&2

if [ "${SKIP_BENCH_GATE:-0}" = "1" ]; then
    echo "== bench-regression gate skipped (SKIP_BENCH_GATE=1)" >&2
else
    echo "== bench-regression gate (fail on >20% regression of $GATE_MATCH vs committed baselines)" >&2
    failed=()
    for f in "$JSON" "$TRAFFIC_JSON" "$CHURN_JSON" "$ENERGY_JSON" "$SCALE_JSON"; do
        if [ -f "$BASELINE_DIR/$f" ]; then
            echo "== benchgate $f" >&2
            if go run ./scripts/benchgate -baseline "$BASELINE_DIR/$f" -fresh "$f" -threshold 1.2 -match "$GATE_MATCH"; then
                echo "benchgate: $f passed" >&2
            else
                echo "benchgate: $f FAILED" >&2
                failed+=("$f")
            fi
        else
            echo "benchgate: no committed baseline for $f; skipping" >&2
        fi
    done
    if [ "${#failed[@]}" -gt 0 ]; then
        echo "benchgate: ${#failed[@]} of 5 files regressed: ${failed[*]}" >&2
        exit 1
    fi
fi
