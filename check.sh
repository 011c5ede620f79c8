#!/bin/sh
# Tier-1 verification: vet, build, then the full test suite under the race
# detector (the worker-pool runner makes every experiment grid concurrent,
# so -race is part of the baseline, not an extra). No test skips outside
# -short, so this one run covers the golden matrix, the fault, disk,
# sampling, cluster and serve-path tests and the committed fuzz corpora.
set -eu
cd "$(dirname "$0")"

go vet ./...
go build ./...
go test -race -timeout 10m ./...

# Simulator and step-1 benchmarks, one iteration each, so they keep
# building and running; the timings they print are not checked here.
go test -run '^$' -bench BenchmarkRun -benchtime 1x ./internal/gpu
go test -run '^$' -bench BenchmarkBuildWorkload -benchtime 1x ./internal/rt

# Fuzz the framed decoder for 15 s beyond its committed corpus: every
# workload it accepts is laid out in a fresh trace arena and replayed
# through gpu.Run, so a decoder that builds an inconsistent arena fails
# here, not in a peer's simulator. Then fuzz the predict decoder for 10 s:
# every prediction it accepts must re-encode to bytes that decode, and
# validate, to the same Result. New inputs are minimized for at most 1 s
# each; at the 60 s default a worker spends the whole run minimizing its
# first find (6 executions in 8 s, against 45 000 at 1 s, on 2 cores).
go test -run '^$' -fuzz FuzzDecodeFramed -fuzztime 15s -fuzzminimizetime 1s ./internal/cluster
go test -run '^$' -fuzz FuzzPredictDecode -fuzztime 10s -fuzzminimizetime 1s ./internal/core

# The examples call core.Predict and core.Reference end to end, so running
# them (a few hundred milliseconds each) keeps the documented entry points
# working, not just compiling.
for ex in quickstart archcompare budgetplanner; do
	go run "./examples/$ex" >/dev/null
done

# Docs lint: every package documented, and every Test/Benchmark/Fuzz name
# the user-facing docs mention defined. (That OPERATIONS.md's metric tables
# match the declared series is TestOperationsMetricTables, run above.)
./scripts/lint_docs.sh

# zateld end-to-end smoke: boot the daemon, serve a cold prediction, assert
# the identical repeat is a store hit via /metrics, exercise request ids /
# ?trace=1 / pprof / per-step histograms, SIGTERM-drain cleanly, restart to
# prove the disk warm hit, then boot a two-node fleet and prove the peer
# fetch path ("cache": "peer", zero non-owner builds).
./scripts/smoke_zateld.sh
