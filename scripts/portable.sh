#!/usr/bin/env bash
# portable.sh — the portability gate for digests: fails if the compiler
# fused a floating-point multiply-add anywhere in this module's code.
#
# The Go spec lets the compiler fuse x*y + z into one instruction that
# rounds once, and on arm64, ppc64le, s390x and riscv64 it does; amd64
# and 386 never fuse. A fused site computes a different float than amd64
# does, so the same seed or snapshot would take a different trajectory.
# An explicit conversion, float64(x*y) + z, rounds the product and so
# prevents fusion. Rather than guess which expressions the compiler fuses,
# this script cross-compiles every package with -S and reads the
# assembly the compiler actually emitted. It prints each fused site as
# file:line (with the architectures that fuse it) and exits 1 if any.
#
# The cross builds compile the standard library from GOROOT for each
# target and need no network; the first run fills the build cache.
#
#   scripts/portable.sh
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
mod=$(go list -m)

sites=$(
  for arch in arm64 ppc64le s390x riscv64; do
    # A cached compile replays its -S output, so reruns are cheap.
    if ! asm=$(GOOS=linux GOARCH=$arch go build -o /dev/null \
      -gcflags="$mod/...=-S" ./... 2>&1); then
      echo "portable: GOARCH=$arch build failed" >&2
      printf '%s\n' "$asm" | grep -v '^\s' >&2 || true
      exit 2
    fi
    printf '%s\n' "$asm" | grep -E '\bF(N)?M(ADD|SUB)' |
      grep -oE "\($root/[^()]*\.go:[0-9]+\)" | tr -d '()' |
      sed "s|^$root/||; s|\$| $arch|" || true
  done | sort -u | awk '{a[$1] = a[$1] " " $2} END {for (s in a) print s a[s]}' | sort -V
)

if [[ -n "$sites" ]]; then
  echo "portable: fused multiply-add at $(printf '%s\n' "$sites" | wc -l) sites:" >&2
  printf '%s\n' "$sites" >&2
  exit 1
fi
echo "portable: no fused multiply-add on arm64, ppc64le, s390x or riscv64"
