#!/usr/bin/env bash
# Entry point of BENCHMARK.json: build zatelbench from source, then run it
# with the arguments given (--workload, --seed, --seconds, --trace). Run from
# the repository root. Everything the build and the run write stays under
# .bench_build in the current directory: the Go build cache, the binary and
# the serve_tiers disk tiers.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/zatelbench ]; then
	echo "zatelbench: run from the root of a zatel checkout (no go.mod here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its telemetry counters
export GOTOOLCHAIN=local GOWORK=off

go build -o "$build/zatelbench" ./cmd/zatelbench
exec "$build/zatelbench" -tmp "$build/tmp" "$@"
