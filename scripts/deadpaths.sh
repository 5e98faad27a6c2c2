#!/usr/bin/env bash
# deadpaths.sh — the zero-coverage gate: no function in a package a step
# or a request passes through may go unexecuted by the whole test suite.
# An oracle that compares a second implementation with the first proves
# nothing while no test reaches the second (the battery pass's parallel
# twin ran in every world of 4 096 nodes and up, and in no test); this
# turns "unexercised" from something a reader notices into a CI failure.
#
# Runs every test in the module once with coverage over ./..., then fails
# on any function at 0.0 % outside the allowlist below in the root
# package or any internal/ package. Binaries and examples (cmd/,
# examples/, scripts/) are left out: their mains are driven by CI's
# smoke steps, not by tests.
#
#   scripts/deadpaths.sh
set -euo pipefail
cd "$(dirname "$0")/.."

GATED='^selfstab/(internal/[^/]+/)?[^/]+\.go:'
# Allowed at 0 %, each with its reason; keep this short.
ALLOW=(
  # Cold error builders, kept out of line so the //selfstab:hotpath body
  # of energy.Engine.Step holds no allocation; the hooks they report on
  # (removeNodeIdx, SetDensityScale) fail only on an out-of-range or dead
  # index, and the pass calls them on nodes it just read as operating.
  'internal/energy/energy.go:[0-9]+:[[:space:]]+killErr[[:space:]]'
  'internal/energy/energy.go:[0-9]+:[[:space:]]+scaleErr[[:space:]]'
)

profile="$(mktemp)"
trap 'rm -f "$profile"' EXIT

echo "== go test -coverpkg=./... ./..."
if ! out=$(go test -count 1 -coverpkg=./... -coverprofile "$profile" ./... 2>&1); then
  echo "$out" >&2
  exit 1
fi

allow=$(IFS='|'; echo "${ALLOW[*]}")
dead=$(go tool cover -func "$profile" | grep -E "$GATED" | awk '$NF == "0.0%"' | grep -Ev "$allow" || true)
if [[ -n "$dead" ]]; then
  echo "deadpaths: no test executes:" >&2
  echo "$dead" >&2
  echo "deadpaths: test it, delete it, or allowlist it in $0 with the reason" >&2
  exit 1
fi
echo "deadpaths: every function matching $GATED is executed by some test"
