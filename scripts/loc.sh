#!/usr/bin/env bash
# loc.sh — code-only non-test Go lines, per package and in total: the
# number ROADMAP's "least code" aim is counted in. A line counts if it is
# neither blank nor a whole-line // comment; tests, testdata, bench/ (its
# own module) and the benchmark's build directory are left out.
#
#   scripts/loc.sh [dir]    # default: this checkout; pass another to compare
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

count() { xargs -r cat | grep -v '^\s*//' | grep -vc '^\s*$' || true; }
files() {
  find "$@" -name '*.go' ! -name '*_test.go' ! -path './bench/*' \
    ! -path '*/testdata/*' ! -path './.bench_build/*'
}

# One row per directory that holds counted files.
files . | xargs -n1 dirname | sort -u | while read -r dir; do
  printf '%7d  %s\n' "$(files "$dir" -maxdepth 1 | count)" "$dir"
done
printf '%7d  total\n' "$(files . | count)"
