#!/bin/sh
# Tier-1 verification: vet, build, then the full test suite under the race
# detector (the worker-pool runner makes every experiment grid concurrent,
# so -race is part of the baseline, not an extra).
set -eu
cd "$(dirname "$0")"

go vet ./...
go build ./...
go test -race -timeout 10m ./...

# Short-mode perf smoke: the cycle-exactness golden matrix and the warm
# pooled-allocation test under the race detector, so a pooling bug that
# shares simulator state across goroutines or drifts a report is caught
# here, not in the benchmark capture (see DESIGN.md "Performance
# engineering").
go test -race -short -timeout 10m \
	-run 'TestCycleExactGolden|TestWarmRunAllocs' \
	./internal/gpu/

# Short-mode fault-injection soak: retries, deadlines, quorum degradation
# and the injector itself under the race detector (see DESIGN.md "Failure
# semantics").
go test -race -short -timeout 5m \
	-run 'Fault|Inject|Degraded|Quorum|Retr|Policy|Straggl|Backoff' \
	./internal/faults/ ./internal/runner/ ./internal/core/ ./internal/experiments/

# Short-mode disk fault-injection soak: the disk tier under torn writes,
# ENOSPC, EIO and bitrot (seeded via the faults filesystem wrapper), plus
# the entry-framing and codec round-trip properties. Proves corrupt entries
# are quarantined and rebuilt — never served — and a failing disk degrades
# to memory-only instead of failing requests (see DESIGN.md "Durability &
# integrity").
go test -race -short -timeout 5m \
	-run 'Disk|Torn|Bitrot|ENOSPC|Quarantine|FaultFS|Codec|EvictionRace' \
	./internal/store/ ./internal/faults/ ./internal/rt/ ./internal/core/ ./internal/service/

# Short-mode adaptive-sampling smoke: the replicated strategies' determinism
# and disjointness properties, interval construction, the adaptive loop's
# round cap, and the service's CI response shape under the race detector
# (see DESIGN.md "Statistical rigor").
go test -race -short -timeout 5m \
	-run 'Replicat|Adaptive|Interval|Deterministic|Overshoot|RespectsCap|CIResponse|CIValidation' \
	./internal/sampling/ ./internal/extrapolate/ ./internal/combine/ \
	./internal/core/ ./internal/service/
go test -race -short -timeout 5m -run 'TestAdaptiveSamplingBench' .

# Short-mode cluster smoke: consistent-hash ring placement (golden table,
# order independence, minimal movement), the peer artifact tier (fetch,
# verification rejects, owner-down degradation, prober recovery), the
# store's peer chain ordering, and the in-process two-node service tests —
# all under the race detector (see DESIGN.md "Distribution").
go test -race -short -timeout 5m \
	-run 'Ring|Cluster|Peer|Prober|Proxy|Frame|TryGet|SingleNode' \
	./internal/cluster/ ./internal/store/ ./internal/service/

# Short-mode serve hot path: the response renderer against encoding/json
# byte for byte, both fuzz targets' committed seed corpora (request decode →
# key, response render), the digest short form, the memory-only store lookup
# and the one-log-line and Content-Length promises, under the race detector
# (see DESIGN.md "Where the time is now").
go test -race -short -timeout 5m \
	-run 'TestRender|FuzzPredictRequest|FuzzRenderPredictResponse|Short|Resident|UntracedHit|OneLine|ContentLength|HitAllocs' \
	./internal/store/ ./internal/service/

# Docs lint: every package documented, every exported metric name present in
# OPERATIONS.md.
./scripts/lint_docs.sh

# zateld end-to-end smoke: boot the daemon, serve a cold prediction, assert
# the identical repeat is a store hit via /metrics, exercise request ids /
# ?trace=1 / pprof / per-step histograms, SIGTERM-drain cleanly, restart to
# prove the disk warm hit, then boot a two-node fleet and prove the peer
# fetch path ("cache": "peer", zero non-owner builds).
./scripts/smoke_zateld.sh
