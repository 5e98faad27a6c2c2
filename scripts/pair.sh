#!/usr/bin/env bash
# pair.sh — alternating paired benchmark runs of the working tree against
# a parent revision.
#
#   scripts/pair.sh <parent-rev> <workload> [pairs] [seed]
#
# Checks <parent-rev> out in a git worktree under .bench_build/parent,
# then runs each tree's own `bench/run.sh --workload <workload> --seed
# <seed> --trace 0`, <pairs> times (default 10, seed 1): the parent first
# on odd pairs, the working tree first on even ones. run.sh builds the
# harness from its tree and runs it from that tree's root, where it reads
# BENCHMARK.json; the harness times only the run, not the build. Every
# run is one line of .bench_build/pairs/<workload>-seed<seed>.jsonl,
# {"pair", "side", "digest", "result"}, where result is the run's result
# object; the summary at the end is `go run ./scripts/benchgate -pairs`
# over it. A verdict needs at least 10 pairs: a shorter set reads "not
# resolved" whatever its wins, since on a shared host the two sides of a
# short set drift apart by more than their quartile distance.
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: scripts/pair.sh <parent-rev> <workload> [pairs] [seed]" >&2
	exit 2
fi
rev=$1 workload=$2 pairs=${3:-10} seed=${4:-1}
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
parent="$root/.bench_build/parent"
if [ -e "$parent/.git" ]; then
	git -C "$parent" checkout -q --detach "$rev"
else
	mkdir -p "$root/.bench_build"
	git worktree add -q --detach "$parent" "$rev"
fi
echo "parent $(git -C "$parent" rev-parse --short HEAD), change: working tree at $(git rev-parse --short HEAD)"

out="$root/.bench_build/pairs/$workload-seed$seed.jsonl"
mkdir -p "$(dirname "$out")"
: >"$out"

# run <pair> <side> <tree>: one untraced run, appended to the pairs file.
run() {
	local log
	log=$(bash "$3/bench/run.sh" --workload "$workload" --seed "$seed" --trace 0)
	local digest
	digest=$(sed -n 's/^sim_digest //p' <<<"$log")
	printf '{"pair":%d,"side":"%s","digest":"%s","result":%s}\n' "$1" "$2" "$digest" "$(tail -n 1 <<<"$log")" >>"$out"
	echo "pair $1 $2 done"
}
for ((k = 1; k <= pairs; k++)); do
	if ((k % 2 == 1)); then
		run "$k" parent "$parent"
		run "$k" change "$root"
	else
		run "$k" change "$root"
		run "$k" parent "$parent"
	fi
done
echo "$out"
go run ./scripts/benchgate -pairs "$out"
