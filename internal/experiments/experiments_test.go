package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"zatel/internal/config"
	"zatel/internal/core"
	"zatel/internal/extrapolate"
	"zatel/internal/metrics"
)

// The drivers are exercised at Small() settings: the point is that every
// experiment runs end to end, produces finite numbers and renders its
// table; the paper-scale numbers are produced by cmd/sweep and the
// benchmarks.

func TestSettingsValidate(t *testing.T) {
	if err := (Settings{}).validate(); err == nil {
		t.Error("zero settings accepted")
	}
	if err := Default().validate(); err != nil {
		t.Error(err)
	}
	if Default().Width != 256 || Default().SPP != 1 {
		t.Error("default settings changed")
	}
}

func TestFig10Small(t *testing.T) {
	res, err := Fig10(Small())
	if err != nil {
		t.Fatal(err)
	}
	if res.K["MobileSoC"] != 4 || res.K["RTX2060"] != 6 {
		t.Errorf("K = %v", res.K)
	}
	for name, errs := range res.Errors {
		for m, e := range errs {
			if math.IsNaN(e) || e < 0 {
				t.Errorf("%s %s error %v", name, m, e)
			}
		}
		if res.MAE[name] <= 0 {
			t.Errorf("%s MAE %v", name, res.MAE[name])
		}
		if res.Speedup[name] <= 0 {
			t.Errorf("%s speedup %v", name, res.Speedup[name])
		}
	}
	if res.CappedSpeedup <= 0 {
		t.Errorf("10%% cap speedup %v", res.CappedSpeedup)
	}
	// The cap must cut simulated work (wall time at this size is noise).
	if res.cappedWork <= res.work["MobileSoC"] {
		t.Errorf("10%% cap work ratio %.2f not above uncapped %.2f",
			res.cappedWork, res.work["MobileSoC"])
	}
	var buf bytes.Buffer
	res.Render(&buf)
	for _, want := range []string{"Fig. 10", "MAE", "Speedup", "GPU Sim Cycles"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFig11Small(t *testing.T) {
	res, err := Fig11(Small())
	if err != nil {
		t.Fatal(err)
	}
	// The RTX 2060 must be faster: fewer cycles, higher IPC — in both the
	// full simulation and the Zatel prediction.
	if res.FullSim[metrics.SimCycles] >= 1 {
		t.Errorf("full-sim normalized cycles %v, want <1", res.FullSim[metrics.SimCycles])
	}
	if res.Zatel[metrics.SimCycles] >= 1 {
		t.Errorf("zatel normalized cycles %v, want <1", res.Zatel[metrics.SimCycles])
	}
	if res.FullSim[metrics.IPC] <= 1 || res.Zatel[metrics.IPC] <= 1 {
		t.Errorf("normalized IPC not >1: full=%v zatel=%v",
			res.FullSim[metrics.IPC], res.Zatel[metrics.IPC])
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Fig. 11") {
		t.Error("render missing header")
	}
}

func TestPercentSweepSmall(t *testing.T) {
	res, err := PercentSweep(Small(), config.MobileSoC(), []string{"SPRNG", "BUNNY"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Percents) != 9 {
		t.Fatalf("percents = %v", res.Percents)
	}
	var xs, works []float64
	for _, sc := range res.Scenes {
		pts := res.Points[sc]
		if len(pts) != 9 {
			t.Fatalf("%s has %d points", sc, len(pts))
		}
		for _, pt := range pts {
			if pt.Speedup <= 0 {
				t.Errorf("%s@%d%% speedup %v", sc, pt.Percent, pt.Speedup)
			}
			xs = append(xs, float64(pt.Percent))
			works = append(works, pt.work)
		}
		// Simulated work must grow with more pixels traced.
		if pts[0].work <= pts[8].work {
			t.Errorf("%s: work ratio at 10%% (%v) not above 90%% (%v)",
				sc, pts[0].work, pts[8].work)
		}
	}
	if res.FitErr != "" {
		t.Errorf("power fit unavailable: %s", res.FitErr)
	}
	// A power fit of the work ratio must have a negative exponent, as the
	// paper's Eq. 4 speedup fit does.
	if _, b, err := extrapolate.PowerFit(xs, works); err != nil || b >= 0 {
		t.Errorf("work-ratio power fit exponent %v (err %v), want negative", b, err)
	}
	var buf bytes.Buffer
	res.RenderFig13(&buf)
	res.RenderFig14(&buf)
	res.RenderFig15(&buf)
	res.RenderFig16(&buf)
	for _, want := range []string{"Fig. 13", "Fig. 14", "Fig. 15", "Fig. 16", "power fit"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTable3Small(t *testing.T) {
	res, err := Table3(Small(), config.MobileSoC(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range Table3Scenes() {
		if len(res.Cells[sc][metrics.SimCycles]) != 12 {
			t.Errorf("%s: %d cells, want 3 dists x 4 sections", sc,
				len(res.Cells[sc][metrics.SimCycles]))
		}
		for _, m := range metrics.All() {
			b := res.Best[sc][m]
			if b.MAE < 0 || math.IsNaN(b.MAE) {
				t.Errorf("%s %s best MAE %v", sc, m, b.MAE)
			}
			if b.BestDist == "" || b.BestSection == "" {
				t.Errorf("%s %s empty winner", sc, m)
			}
		}
		if res.SceneMAE[sc] <= 0 {
			t.Errorf("%s scene MAE %v", sc, res.SceneMAE[sc])
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Table III") {
		t.Error("render missing header")
	}
}

func TestDownscaleSweepSmall(t *testing.T) {
	res, err := DownscaleSweep(Small(), config.MobileSoC(), []string{"BUNNY"})
	if err != nil {
		t.Fatal(err)
	}
	// MobileSoC (8 SMs / 4 partitions) admits K ∈ {2, 4}.
	if len(res.Factors) != 2 || res.Factors[0] != 2 || res.Factors[1] != 4 {
		t.Fatalf("factors = %v", res.Factors)
	}
	for _, div := range []core.Division{core.FineGrained, core.CoarseGrained} {
		pts := res.Points[div]["BUNNY"]
		if len(pts) != 2 {
			t.Fatalf("%s: %d points", div, len(pts))
		}
		for _, pt := range pts {
			if pt.Speedup <= 0 {
				t.Errorf("%s K=%d speedup %v", div, pt.K, pt.Speedup)
			}
		}
		// Bigger K simulates fewer pixels: less simulated work.
		if pts[1].work <= pts[0].work {
			t.Errorf("%s: K=4 work ratio %v not above K=2 %v",
				div, pts[1].work, pts[0].work)
		}
	}
	var buf bytes.Buffer
	res.RenderErrors(&buf, "Fig. 17")
	res.RenderSpeedup(&buf)
	for _, want := range []string{"Fig. 17", "Fig. 19", "fine-grained"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestValidFactors(t *testing.T) {
	soc := ValidFactors(config.MobileSoC())
	if len(soc) != 2 || soc[0] != 2 || soc[1] != 4 {
		t.Errorf("SoC factors = %v", soc)
	}
	rtx := ValidFactors(config.RTX2060())
	want := []int{2, 3, 6}
	if len(rtx) != 3 {
		t.Fatalf("RTX factors = %v", rtx)
	}
	for i, k := range want {
		if rtx[i] != k {
			t.Errorf("RTX factors = %v, want %v", rtx, want)
		}
	}
}

func TestFig20Small(t *testing.T) {
	res, err := Fig20(Small(), config.MobileSoC(), []string{"SPRNG", "SHIP"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 2*len(metrics.All()) {
		t.Errorf("total pairs %d", res.Total)
	}
	if res.WorseCount < 0 || res.WorseCount > res.Total {
		t.Errorf("worse count %d of %d", res.WorseCount, res.Total)
	}
	for _, sc := range res.Scenes {
		for _, m := range metrics.All() {
			if math.IsNaN(res.RegErr[sc][m]) || math.IsNaN(res.DirectErr[sc][m]) {
				t.Errorf("%s %s NaN error", sc, m)
			}
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Fig. 20") {
		t.Error("render missing header")
	}
}
