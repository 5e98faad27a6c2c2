#!/usr/bin/env bash
# lint.sh — the repo's static-analysis gate, the same sweep CI runs.
#
# Order: the cheap universal checks first (gofmt, go vet), then the
# repo's own analyzer suite (cmd/selfstab-lint: detrand, maporder,
# journalchoke, hotpath, obspure, testonly — see internal/analyze), then
# the third-party scanners (staticcheck, govulncheck) when they are
# installed. The
# third-party tools are gated on availability rather than installed on
# the fly so the script works offline; CI installs pinned versions.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
# internal/analyze/testdata holds a separate fixture module with
# deliberate violations; everything else must be clean.
fmt=$(gofmt -l . | grep -v '/testdata/' || true)
if [[ -n "$fmt" ]]; then
  echo "gofmt: needs formatting:" >&2
  echo "$fmt" >&2
  exit 1
fi

echo "== go vet"
go vet ./...
# bench/ is a module of its own, which ./... above never reaches.
(cd bench && go vet ./...)

echo "== selfstab-lint"
# No arguments: the whole program, this module and bench/ as one build.
go run ./cmd/selfstab-lint

if command -v staticcheck >/dev/null 2>&1; then
  echo "== staticcheck"
  staticcheck ./...
else
  echo "== staticcheck (skipped: not installed)"
fi

if command -v govulncheck >/dev/null 2>&1; then
  echo "== govulncheck"
  govulncheck ./...
else
  echo "== govulncheck (skipped: not installed)"
fi

echo "lint: all gates passed"
