#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it. Every
# build and run artefact stays under .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload write_steady --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 30
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off
# The source commit; outside a git checkout, a digest of the Go sources.
if [ -e "$root/.git" ]; then
  commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
else
  commit="src-$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
    LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-12)"
fi
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --dir "$out" --commit "$commit" "$@"
