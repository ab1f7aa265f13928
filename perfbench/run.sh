#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments:
#
#   bash perfbench/run.sh --workload campaign-small --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every file the build and the run write
# stays under .bench_build/ in that root: the Go build cache, the binary,
# the service state directories and the recorded exactness counts.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
