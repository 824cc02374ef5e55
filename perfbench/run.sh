#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload online --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# repository root (Go build cache, trained fixtures, result files, temp
# state), so a fresh checkout builds from scratch and leaves nothing else.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out"
export GOWORK=off
export GOTOOLCHAIN=local
export GOFLAGS=

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
