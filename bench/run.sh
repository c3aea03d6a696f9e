#!/usr/bin/env bash
# Builds the benchmark and the sdfd daemon from source, then runs the
# benchmark from the repository root with all arguments passed through:
#
#   bash bench/run.sh --workload compile-cold --seed 1 --seconds 8 --trace 0
#
# Everything the build and the runs write — Go's build cache, temporary
# stores, binaries, traces — stays under .bench_build/ in the repository.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

cd "$root"
go build -o "$build/sdfd" ./cmd/sdfd >&2
(cd bench && go build -o "$build/bench" .) >&2
exec "$build/bench" -sdfd "$build/sdfd" -tracedir "$build/trace" "$@"
