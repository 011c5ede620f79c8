package experiments

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"zatel/internal/config"
)

// TestSweepParallelMatchesSerial proves the worker-pool rewiring changes
// only timing: the rendered error/speedup grids must be identical between a
// serial (Workers=1) and a parallel (Workers=4) PercentSweep, modulo the
// timing columns.
func TestSweepParallelMatchesSerial(t *testing.T) {
	serial, parallel := small(), small()
	serial.Workers = 1
	parallel.Workers = 4
	a, err := PercentSweep(serial, config.MobileSoC(), []string{"SPRNG"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PercentSweep(parallel, config.MobileSoC(), []string{"SPRNG"})
	if err != nil {
		t.Fatal(err)
	}
	for pi := range a.Percents {
		pa, pb := a.Points["SPRNG"][pi], b.Points["SPRNG"][pi]
		for m, e := range pa.Errors {
			if pb.Errors[m] != e {
				t.Errorf("%d%%: %s error %v (serial) vs %v (parallel)",
					pa.Percent, m, e, pb.Errors[m])
			}
		}
		if pa.RefWall != pb.RefWall {
			t.Errorf("%d%%: reference wall time differs — reference not memoised?", pa.Percent)
		}
	}
	if a.Pool.Workers != 1 || b.Pool.Workers != 4 {
		t.Errorf("pool workers %d / %d, want 1 / 4", a.Pool.Workers, b.Pool.Workers)
	}
	if a.Pool.Jobs != 9 || b.Pool.Jobs != 9 {
		t.Errorf("pool jobs %d / %d, want 9", a.Pool.Jobs, b.Pool.Jobs)
	}
	if a.Pool.CPU <= 0 || a.Pool.Wall <= 0 {
		t.Errorf("pool accounting empty: %+v", a.Pool)
	}
}

// TestPercentSweepParallelFaster is the wall-time acceptance check: on a
// multi-core host the pooled grid must beat the serial one. Single-core
// hosts merely time-slice, so the comparison is skipped there.
func TestPercentSweepParallelFaster(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skipf("single-core host (GOMAXPROCS=%d): parallel grid cannot beat serial", runtime.GOMAXPROCS(0))
	}
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	serial, parallel := small(), small()
	serial.Workers = 1
	parallel.Workers = 0 // one per core
	scenes := []string{"SPRNG", "SHIP"}
	// Warm the workload and reference caches so both runs measure only the
	// grid itself.
	if _, err := PercentSweep(small(), config.MobileSoC(), scenes); err != nil {
		t.Fatal(err)
	}
	a, err := PercentSweep(serial, config.MobileSoC(), scenes)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PercentSweep(parallel, config.MobileSoC(), scenes)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("serial: %+v", a.Pool)
	t.Logf("parallel: %+v", b.Pool)
	if b.Pool.Wall >= a.Pool.Wall {
		t.Errorf("parallel grid wall %v not below serial %v on %d cores",
			b.Pool.Wall, a.Pool.Wall, runtime.GOMAXPROCS(0))
	}
}

// TestPoolLineRendered checks the cpu-vs-wall accounting surfaces in the
// rendered outputs.
func TestPoolLineRendered(t *testing.T) {
	res, err := PercentSweep(small(), config.MobileSoC(), []string{"SPRNG"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.RenderFig14(&buf)
	res.RenderFig15(&buf)
	if got := strings.Count(buf.String(), "pool: 9 jobs on "); got != 2 {
		t.Errorf("pool accounting line rendered %d times, want 2:\n%s", got, buf.String())
	}
}

// TestFitErrSurfaced checks a failed power fit renders as unavailable
// instead of bogus zero coefficients.
func TestFitErrSurfaced(t *testing.T) {
	r := &SweepResult{
		Settings: small(),
		Config:   "MobileSoC",
		Scenes:   []string{"SPRNG"},
		Percents: []int{10},
		Points:   map[string][]SweepPoint{"SPRNG": {{Scene: "SPRNG", Percent: 10}}},
		FitErr:   "need at least 2 points",
	}
	var buf bytes.Buffer
	r.RenderFig15(&buf)
	out := buf.String()
	if !strings.Contains(out, "power fit unavailable: need at least 2 points") {
		t.Errorf("fit failure not surfaced:\n%s", out)
	}
	if strings.Contains(out, "0.0 * perc^0.00") {
		t.Errorf("bogus zero fit still rendered:\n%s", out)
	}
}
