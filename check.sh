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

# Docs lint: every package documented, every exported metric name present in
# OPERATIONS.md.
./scripts/lint_docs.sh

# zateld end-to-end smoke: boot the daemon, serve a cold prediction, assert
# the identical repeat is a store hit via /metrics, exercise request ids /
# ?trace=1 / pprof / per-step histograms, SIGTERM-drain cleanly, restart to
# prove the disk warm hit, then boot a two-node fleet and prove the peer
# fetch path ("cache": "peer", zero non-owner builds).
./scripts/smoke_zateld.sh
