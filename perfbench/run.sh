#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload clos_million --seed 1 --seconds 32 --trace 0
#
# Every build artefact (binary, Go build cache, span files, run records)
# stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
