// GPU hot-path benchmarks: wall clock and allocation trajectories for the
// cycle-level simulator (internal/gpu) and the trace substrate it replays
// (internal/rt). TestGPUHotPathSpeedup gates the perf overhaul against the
// baselines captured at the start of the PR and emits machine-readable
// numbers when ZATEL_BENCH_GPU_JSON names a path.
package zatel_test

import (
	"context"
	"encoding/json"
	"os"
	"sync"
	"testing"
	"time"

	"zatel/internal/config"
	"zatel/internal/gpu"
	"zatel/internal/rt"
	"zatel/internal/scene"
)

// The canonical GPU benchmark job: PARK at 128x128, 1 spp, on the Mobile
// SoC — large enough that the simulator dominates (the reference run is
// hundreds of milliseconds), small enough to repeat.
const (
	gpuBenchScene = "PARK"
	gpuBenchRes   = 128
	gpuBenchSPP   = 1
)

// Baselines measured at the start of the PR (pre-optimization simulator,
// same job, same container) — the denominators for the acceptance gates:
// >= 1.3x wall-clock on the reference simulation and >= 5x fewer
// allocations per warm gpu.Run.
const (
	baselineRefRunMS    = 878.2
	baselineWarmAllocs  = 1_454_118
	baselineBuildWallMS = 186.3
)

var (
	gpuBenchOnce   sync.Once
	gpuBenchTraces []rt.ThreadTrace
	gpuBenchErr    error
)

func gpuBenchWorkload(tb testing.TB) []rt.ThreadTrace {
	tb.Helper()
	gpuBenchOnce.Do(func() {
		wl, err := rt.CachedWorkloadContext(context.Background(), gpuBenchScene, gpuBenchRes, gpuBenchRes, gpuBenchSPP)
		if err != nil {
			gpuBenchErr = err
			return
		}
		gpuBenchTraces = wl.Traces
	})
	if gpuBenchErr != nil {
		tb.Fatal(gpuBenchErr)
	}
	return gpuBenchTraces
}

// BenchmarkGPURunCold measures the first-run path: the simulator pools are
// drained before every iteration, so each run pays the full arena build.
// The warm pooled path is internal/gpu's BenchmarkRun.
func BenchmarkGPURunCold(b *testing.B) {
	traces := gpuBenchWorkload(b)
	cfg := config.MobileSoC()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		gpu.DrainPools()
		b.StartTimer()
		if _, err := gpu.Run(gpu.Job{Cfg: cfg, Traces: traces}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGPUHotPathSpeedup asserts the PR's acceptance gates against the
// pre-optimization baselines: the reference simulation must run >= 1.3x
// faster and a warm pooled gpu.Run must allocate >= 5x fewer objects.
// Wall times are the best of three so scheduler noise cannot fail the run.
func TestGPUHotPathSpeedup(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock and allocation baselines are meaningless under the race detector")
	}
	traces := gpuBenchWorkload(t)
	cfg := config.MobileSoC()

	bestOf3 := func(f func()) time.Duration {
		best := time.Duration(1<<62 - 1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			f()
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}

	// Reference simulation: the full workload through gpu.Run. The first
	// call warms the pool; the timed repeats are the steady state every
	// experiment driver and zateld request sees.
	if _, err := gpu.Run(gpu.Job{Cfg: cfg, Traces: traces}); err != nil {
		t.Fatal(err)
	}
	refWall := bestOf3(func() {
		if _, err := gpu.Run(gpu.Job{Cfg: cfg, Traces: traces}); err != nil {
			t.Fatal(err)
		}
	})

	warmAllocs := testing.AllocsPerRun(5, func() {
		if _, err := gpu.Run(gpu.Job{Cfg: cfg, Traces: traces}); err != nil {
			t.Fatal(err)
		}
	})

	sc, err := scene.ByName(gpuBenchScene)
	if err != nil {
		t.Fatal(err)
	}
	buildWall := bestOf3(func() {
		if _, err := rt.BuildWorkload(sc, gpuBenchRes, gpuBenchRes, gpuBenchSPP); err != nil {
			t.Fatal(err)
		}
	})

	refMS := float64(refWall) / 1e6
	buildMS := float64(buildWall) / 1e6
	speedup := baselineRefRunMS / refMS
	allocRatio := baselineWarmAllocs / max(warmAllocs, 1)
	t.Logf("reference run %.1fms (baseline %.1fms, %.2fx), warm allocs %.0f (baseline %d, %.0fx fewer), BuildWorkload %.1fms (baseline %.1fms)",
		refMS, baselineRefRunMS, speedup, warmAllocs, baselineWarmAllocs, allocRatio, buildMS, baselineBuildWallMS)

	if speedup < 1.3 {
		t.Errorf("reference simulation only %.2fx faster than the pre-optimization baseline (want >= 1.3x): %.1fms vs %.1fms",
			speedup, refMS, baselineRefRunMS)
	}
	if allocRatio < 5 {
		t.Errorf("warm gpu.Run allocates %.0f objects/op, only %.1fx below the pre-optimization baseline %d (want >= 5x)",
			warmAllocs, allocRatio, baselineWarmAllocs)
	}

	if path := os.Getenv("ZATEL_BENCH_GPU_JSON"); path != "" {
		out := map[string]any{
			"scene":               gpuBenchScene,
			"width":               gpuBenchRes,
			"height":              gpuBenchRes,
			"spp":                 gpuBenchSPP,
			"config":              cfg.Name,
			"ref_run_ms":          refMS,
			"ref_run_baseline_ms": baselineRefRunMS,
			"ref_run_speedup":     speedup,
			"warm_allocs":         warmAllocs,
			"warm_allocs_base":    baselineWarmAllocs,
			"warm_allocs_ratio":   allocRatio,
			"build_ms":            buildMS,
			"build_baseline_ms":   baselineBuildWallMS,
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatalf("marshal bench json: %v", err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatalf("write %s: %v", path, err)
		}
	}
}
