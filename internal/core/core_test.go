package core

import (
	"math"
	"strings"
	"testing"

	"zatel/internal/config"
	"zatel/internal/metrics"
	"zatel/internal/sampling"
)

// small returns fast default options for unit tests (64×64, 1 spp).
func small(scene string) Options {
	return Options{
		Config: config.MobileSoC(),
		Scene:  scene,
		Width:  64, Height: 64, SPP: 1,
		Dist: sampling.Uniform,
	}
}

func TestPredictValidation(t *testing.T) {
	opts := small("PARK")
	opts.FixedFraction = 1.5
	if _, err := Predict(opts); err == nil {
		t.Error("fraction 1.5 accepted")
	}
	opts = small("NOPE")
	if _, err := Predict(opts); err == nil {
		t.Error("unknown scene accepted")
	}
	opts = small("PARK")
	opts.Config.NumSMs = 0
	if _, err := Predict(opts); err == nil {
		t.Error("invalid config accepted")
	}
	opts = small("PARK")
	opts.K = 3 // does not divide 8 SMs / 4 partitions
	if _, err := Predict(opts); err == nil {
		t.Error("non-dividing K accepted")
	}

	// Validate itself: the checks zateld runs on every request, without a
	// build.
	if err := small("PARK").Validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
	bad := map[string]func(o *Options){
		"negative width":         func(o *Options) { o.Width = -1 },
		"negative spp":           func(o *Options) { o.SPP = -2 },
		"unknown scene":          func(o *Options) { o.Scene = "park" },
		"missing scene":          func(o *Options) { o.Scene = "" },
		"fraction above the cap": func(o *Options) { o.FixedFraction, o.MaxFraction = 0.5, 0.1 },
		"regression under a fixed fraction below 0.4": func(o *Options) { o.Regression, o.FixedFraction = true, 0.3 },
		"regression under a cap below 0.4":            func(o *Options) { o.Regression, o.MaxFraction = true, 0.1 },
	}
	for name, set := range bad {
		opts := small("PARK")
		set(&opts)
		if err := opts.Validate(); err == nil {
			t.Errorf("%s accepted by Validate", name)
		}
		if _, err := Predict(opts); err == nil {
			t.Errorf("%s accepted by Predict", name)
		}
	}
	// The fraction rule binds only when both are set, and equality is fine.
	opts = small("PARK")
	opts.FixedFraction, opts.MaxFraction = 0.1, 0.1
	if err := opts.Validate(); err != nil {
		t.Errorf("FixedFraction equal to MaxFraction rejected: %v", err)
	}
	// Regression's 40 % subset fits a budget of exactly 0.4, or none.
	for _, f := range []float64{0, 0.4, 1} {
		opts = small("PARK")
		opts.Regression, opts.FixedFraction, opts.MaxFraction = true, f, f
		if err := opts.Validate(); err != nil {
			t.Errorf("regression with fraction %v rejected: %v", f, err)
		}
	}
}

// TestEmptyGroupFailsEveryStrategy: an 8×8 frame on the RTX 2060 (K=6)
// leaves groups 4 and 5 without a pixel. Step 4 rejects it before any
// simulation, with the same error for a point and a replicated strategy.
func TestEmptyGroupFailsEveryStrategy(t *testing.T) {
	var errs []string
	for _, dist := range []sampling.Distribution{sampling.Uniform, sampling.Stratified} {
		opts := Options{Config: config.RTX2060(), Scene: "SPRNG", Width: 8, Height: 8, SPP: 1, Dist: dist}
		opts.FT.Attempts = 3
		res, err := Predict(opts)
		if err == nil || res != nil {
			t.Fatalf("%s: result %v, error %v; want an empty-group error and no result", dist, res, err)
		}
		errs = append(errs, err.Error())
	}
	if errs[0] != errs[1] || !strings.Contains(errs[0], "group 4 of 6") {
		t.Errorf("uniform failed with %q, stratified with %q; want the same error naming group 4", errs[0], errs[1])
	}
}

func TestPredictPipelineShape(t *testing.T) {
	res, err := Predict(small("PARK"))
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 4 {
		t.Errorf("K = %d, want gcd(8,4)=4", res.K)
	}
	if len(res.Groups) != 4 {
		t.Errorf("%d groups", len(res.Groups))
	}
	for gi, g := range res.Groups {
		if g.Fraction < sampling.MinPercent-0.05 || g.Fraction > sampling.MaxPercent+0.05 {
			t.Errorf("group %d fraction %v outside Eq.1 clamp", gi, g.Fraction)
		}
		if g.Pixels != 64*64/4 {
			t.Errorf("group %d has %d pixels", gi, g.Pixels)
		}
		if g.Report.Cycles == 0 {
			t.Errorf("group %d simulated nothing", gi)
		}
	}
	for _, m := range metrics.All() {
		v, ok := res.Predicted[m]
		if !ok {
			t.Fatalf("missing predicted metric %s", m)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Errorf("%s predicted %v", m, v)
		}
	}
	if res.Quantized == nil || len(res.Quantized.Levels) == 0 {
		t.Error("no quantized heatmap")
	}
}

func TestPredictAccuracyAgainstReference(t *testing.T) {
	ref, err := Reference(config.MobileSoC(), "PARK", 64, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Predict(small("PARK"))
	if err != nil {
		t.Fatal(err)
	}
	errs := res.Errors(ref)
	// Headline sanity: the default pipeline must land within 50% on
	// simulation cycles and IPC even at this small test resolution.
	if errs[metrics.SimCycles] > 0.5 {
		t.Errorf("cycles error %v too high", errs[metrics.SimCycles])
	}
	if errs[metrics.IPC] > 0.5 {
		t.Errorf("IPC error %v too high", errs[metrics.IPC])
	}
	if sp := res.Speedup(ref); sp <= 0 {
		t.Errorf("speedup %v", sp)
	}
}

func TestFullFractionNoDownscaleMatchesReference(t *testing.T) {
	// Tracing 100% of pixels on the full GPU must reproduce the reference
	// closely (only warp launch order differs).
	ref, err := Reference(config.MobileSoC(), "SPNZA", 64, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := small("SPNZA")
	opts.NoDownscale = true
	opts.FixedFraction = 1
	res, err := Predict(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 || res.K != 1 {
		t.Fatalf("NoDownscale gave K=%d groups=%d", res.K, len(res.Groups))
	}
	errs := res.Errors(ref)
	for _, m := range metrics.All() {
		if errs[m] > 0.1 {
			t.Errorf("%s error %v at 100%% pixels, want <10%%", m, errs[m])
		}
	}
	// Instructions must match exactly: same threads, same GPU.
	if res.Groups[0].Report.Instructions != ref.Instructions {
		t.Errorf("instructions %d != reference %d",
			res.Groups[0].Report.Instructions, ref.Instructions)
	}
}

func TestFixedFractionHonoured(t *testing.T) {
	opts := small("BUNNY")
	opts.FixedFraction = 0.2
	res, err := Predict(opts)
	if err != nil {
		t.Fatal(err)
	}
	for gi, g := range res.Groups {
		if math.Abs(g.Fraction-0.2) > 0.08 {
			t.Errorf("group %d fraction %v, want ≈0.2", gi, g.Fraction)
		}
	}
}

func TestMaxFractionCap(t *testing.T) {
	opts := small("SHIP") // cold scene: Eq.1 would choose 0.6
	opts.MaxFraction = 0.1
	res, err := Predict(opts)
	if err != nil {
		t.Fatal(err)
	}
	for gi, g := range res.Groups {
		if g.Fraction > 0.15 {
			t.Errorf("group %d fraction %v exceeds 0.1 cap", gi, g.Fraction)
		}
	}
}

func TestKOverride(t *testing.T) {
	opts := small("SPRNG")
	opts.K = 2
	res, err := Predict(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 2 || len(res.Groups) != 2 {
		t.Errorf("K=%d groups=%d, want 2/2", res.K, len(res.Groups))
	}
}

func TestCoarseDivision(t *testing.T) {
	opts := small("CHSNT")
	opts.Division = CoarseGrained
	res, err := Predict(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 4 {
		t.Fatalf("%d groups", len(res.Groups))
	}
	for _, m := range metrics.All() {
		if v := res.Predicted[m]; math.IsNaN(v) || v < 0 {
			t.Errorf("coarse %s = %v", m, v)
		}
	}
}

func TestSeedDeterminism(t *testing.T) {
	a, err := Predict(small("WKND"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Predict(small("WKND"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range metrics.All() {
		if a.Predicted[m] != b.Predicted[m] {
			t.Errorf("%s differs across identical runs: %v vs %v", m, a.Predicted[m], b.Predicted[m])
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	seq := small("SPRNG")
	par := small("SPRNG")
	par.Parallel = true
	a, err := Predict(seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Predict(par)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range metrics.All() {
		if a.Predicted[m] != b.Predicted[m] {
			t.Errorf("%s differs between sequential and parallel", m)
		}
	}
}

func TestRegressionMode(t *testing.T) {
	opts := small("BUNNY")
	opts.Regression = true
	res, err := Predict(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range metrics.All() {
		v := res.Predicted[m]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("regression %s = %v", m, v)
		}
	}
	// The recorded group runs are the 40% simulations.
	for gi, g := range res.Groups {
		if math.Abs(g.Fraction-0.4) > 1e-9 {
			t.Errorf("group %d recorded fraction %v, want 0.4", gi, g.Fraction)
		}
	}
}

func TestReferenceCaching(t *testing.T) {
	a, err := Reference(config.MobileSoC(), "SHIP", 64, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Reference(config.MobileSoC(), "SHIP", 64, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cached reference differs (WallTime must be preserved)")
	}
	if a.WallTime == 0 {
		t.Error("reference wall time not recorded")
	}
}

func TestErrorsAndSpeedupHelpers(t *testing.T) {
	ref, err := Reference(config.MobileSoC(), "SPRNG", 64, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Predict(small("SPRNG"))
	if err != nil {
		t.Fatal(err)
	}
	errs := res.Errors(ref)
	if len(errs) != len(metrics.All()) {
		t.Errorf("Errors returned %d metrics", len(errs))
	}
	for m, e := range errs {
		if e < 0 {
			t.Errorf("%s error negative: %v", m, e)
		}
	}
	if res.Speedup(ref) <= 0 {
		t.Error("non-positive speedup")
	}
}

func TestDivisionString(t *testing.T) {
	if FineGrained.String() != "fine" || CoarseGrained.String() != "coarse" {
		t.Error("division names wrong")
	}
}

// FuzzParseDivision: every name ParseDivision accepts yields a valid
// division whose String parses back to the same division.
func FuzzParseDivision(f *testing.F) {
	for _, name := range []string{"", "fine", "coarse", "COARSE", "Fine", "tiles"} {
		f.Add(name)
	}
	f.Fuzz(func(t *testing.T, name string) {
		d, err := ParseDivision(name)
		if err != nil {
			return
		}
		back, err := ParseDivision(d.String())
		if !d.Valid() || err != nil || back != d {
			t.Fatalf("ParseDivision(%q) = %v, but its String %q parses to %v, %v", name, d, d.String(), back, err)
		}
	})
}
