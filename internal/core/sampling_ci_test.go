package core

import (
	"math"
	"reflect"
	"testing"

	"zatel/internal/metrics"
	"zatel/internal/sampling"
)

// replicatedOpts returns small options running a replicated strategy.
func replicatedOpts(scene string, dist sampling.Distribution) Options {
	opts := small(scene)
	opts.Dist = dist
	opts.FixedFraction = 0.3
	return opts
}

func TestReplicatedPredictProducesIntervals(t *testing.T) {
	for _, dist := range []sampling.Distribution{sampling.Stratified, sampling.RankedSet} {
		res, err := Predict(replicatedOpts("PARK", dist))
		if err != nil {
			t.Fatalf("%s: %v", dist, err)
		}
		if res.Intervals == nil {
			t.Fatalf("%s: no intervals on a replicated run", dist)
		}
		for _, m := range metrics.All() {
			iv, ok := res.Intervals[m]
			if !ok {
				t.Fatalf("%s: missing interval for %s", dist, m)
			}
			if iv.Low > iv.Mean || iv.Mean > iv.High {
				t.Errorf("%s: %s interval [%v,%v] does not bracket mean %v",
					dist, m, iv.Low, iv.High, iv.Mean)
			}
			if iv.Replicates < 2 {
				t.Errorf("%s: %s built from %d replicates", dist, m, iv.Replicates)
			}
			if res.Predicted[m] != iv.Mean {
				t.Errorf("%s: predicted %s %v != interval mean %v",
					dist, m, res.Predicted[m], iv.Mean)
			}
		}
		for gi, g := range res.Groups {
			if g.Replicates < 2 || g.Rounds != 1 {
				t.Errorf("%s: group %d replicates=%d rounds=%d, want ≥2 and 1",
					dist, gi, g.Replicates, g.Rounds)
			}
			if !g.TargetMet {
				t.Errorf("%s: group %d target unmet with no target set", dist, gi)
			}
		}
	}
}

// TestReplicatedSeedByteIdentical is the determinism gate: the same seed must
// yield byte-identical selections and intervals across runs, sequential or
// parallel.
func TestReplicatedSeedByteIdentical(t *testing.T) {
	opts := replicatedOpts("WKND", sampling.Stratified)
	opts.TargetCIHalfWidth = 0.05
	a, err := Predict(opts)
	if err != nil {
		t.Fatal(err)
	}
	par := opts
	par.Parallel = true
	b, err := Predict(par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Intervals, b.Intervals) {
		t.Errorf("intervals differ across identical-seed runs:\n%v\nvs\n%v", a.Intervals, b.Intervals)
	}
	for gi := range a.Groups {
		ga, gb := a.Groups[gi], b.Groups[gi]
		if ga.Selected != gb.Selected || ga.Fraction != gb.Fraction ||
			ga.Rounds != gb.Rounds || ga.Replicates != gb.Replicates {
			t.Errorf("group %d run shape differs across identical-seed runs", gi)
		}
		if !reflect.DeepEqual(ga.Intervals, gb.Intervals) {
			t.Errorf("group %d intervals differ across identical-seed runs", gi)
		}
	}
	c, err := Predict(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Intervals, c.Intervals) {
		t.Error("intervals differ across repeated identical runs")
	}
}

func TestAdaptiveStopsWithinRoundCap(t *testing.T) {
	opts := replicatedOpts("SHIP", sampling.RankedSet)
	opts.FixedFraction = 0.1
	opts.TargetCIHalfWidth = 1e-6 // unattainable: must hit the round cap
	opts.Sampling.MaxRounds = 3
	res, err := Predict(opts)
	if err != nil {
		t.Fatal(err)
	}
	for gi, g := range res.Groups {
		if g.Rounds < 1 || g.Rounds > 3 {
			t.Errorf("group %d ran %d rounds, cap is 3", gi, g.Rounds)
		}
	}
	// A generous target stops in the first round without growing the sample.
	opts.TargetCIHalfWidth = 100
	opts.Sampling.MaxRounds = 4
	res, err = Predict(opts)
	if err != nil {
		t.Fatal(err)
	}
	for gi, g := range res.Groups {
		if g.Rounds != 1 || !g.TargetMet {
			t.Errorf("group %d: rounds=%d targetMet=%v with a trivial target",
				gi, g.Rounds, g.TargetMet)
		}
	}
}

// TestAdaptiveGrowsFractionUntilTarget checks the adaptive loop actually
// enlarges the sample between rounds and reports the final realized fraction.
func TestAdaptiveGrowsFractionUntilTarget(t *testing.T) {
	base := replicatedOpts("PARK", sampling.Stratified)
	base.FixedFraction = 0.1
	fixed, err := Predict(base)
	if err != nil {
		t.Fatal(err)
	}
	adaptive := base
	adaptive.TargetCIHalfWidth = 1e-6
	adaptive.Sampling.MaxRounds = 3
	grown, err := Predict(adaptive)
	if err != nil {
		t.Fatal(err)
	}
	for gi := range grown.Groups {
		g, f := grown.Groups[gi], fixed.Groups[gi]
		if g.Rounds <= 1 {
			t.Errorf("group %d never re-drew despite an unattainable target", gi)
		}
		if g.Fraction <= f.Fraction {
			t.Errorf("group %d adaptive fraction %v did not grow beyond fixed %v",
				gi, g.Fraction, f.Fraction)
		}
	}
}

// TestReplicatedCIShrinksWithFraction: tracing more pixels must tighten the
// intervals — the sample-complexity story the strategies exist for.
func TestReplicatedCIShrinksWithFraction(t *testing.T) {
	narrow := replicatedOpts("BUNNY", sampling.RankedSet)
	narrow.FixedFraction = 0.15
	small, err := Predict(narrow)
	if err != nil {
		t.Fatal(err)
	}
	wide := replicatedOpts("BUNNY", sampling.RankedSet)
	wide.FixedFraction = 0.6
	big, err := Predict(wide)
	if err != nil {
		t.Fatal(err)
	}
	hwSmall := small.Intervals.MaxRelHalfWidth()
	hwBig := big.Intervals.MaxRelHalfWidth()
	if hwBig >= hwSmall {
		t.Errorf("60%% sample half-width %v not below 15%% sample %v", hwBig, hwSmall)
	}
}

// TestReplicatedFractionRespectsCap is the realized-budget regression test
// for the replicated path: with MaxFraction set, no adaptive round may push
// the realized per-group fraction past the cap by more than one pixel.
func TestReplicatedFractionRespectsCap(t *testing.T) {
	opts := replicatedOpts("SHIP", sampling.Stratified)
	opts.FixedFraction = 0
	opts.MaxFraction = 0.2
	opts.TargetCIHalfWidth = 1e-6 // pressure to grow into the cap
	opts.Sampling.MaxRounds = 4
	res, err := Predict(opts)
	if err != nil {
		t.Fatal(err)
	}
	for gi, g := range res.Groups {
		if g.Fraction > 0.2+1/float64(g.Pixels)+1e-9 {
			t.Errorf("group %d realized fraction %v exceeds the 0.2 cap by more than one pixel",
				gi, g.Fraction)
		}
	}
}

// TestPointEstimateFractionRespectsCap pins the same budget guarantee for
// the point-estimate strategies (the MaxFraction overshoot bugfix).
func TestPointEstimateFractionRespectsCap(t *testing.T) {
	for _, dist := range []sampling.Distribution{sampling.Uniform, sampling.LinTmp, sampling.ExpTmp} {
		opts := small("SHIP") // cold scene: Eq. 1 wants 0.6, cap forces 0.1
		opts.Dist = dist
		opts.MaxFraction = 0.1
		res, err := Predict(opts)
		if err != nil {
			t.Fatalf("%s: %v", dist, err)
		}
		for gi, g := range res.Groups {
			if g.Fraction > 0.1+1/float64(g.Pixels)+1e-9 {
				t.Errorf("%s group %d realized fraction %v exceeds the 0.1 cap by more than one pixel",
					dist, gi, g.Fraction)
			}
		}
	}
}

func TestReplicatedValidation(t *testing.T) {
	opts := replicatedOpts("PARK", sampling.Stratified)
	opts.Regression = true
	if _, err := Predict(opts); err == nil {
		t.Error("replicated strategy with regression extrapolation accepted")
	}
	opts = small("PARK")
	opts.TargetCIHalfWidth = 0.05
	if _, err := Predict(opts); err == nil {
		t.Error("CI target with a point-estimate strategy accepted")
	}
	opts = small("PARK")
	opts.TargetCIHalfWidth = -1
	if _, err := Predict(opts); err == nil {
		t.Error("negative CI target accepted")
	}
	opts = replicatedOpts("PARK", sampling.RankedSet)
	opts.Sampling.Replicates = 1
	if _, err := Predict(opts); err == nil {
		t.Error("single replicate accepted")
	}
	opts = replicatedOpts("PARK", sampling.RankedSet)
	opts.Sampling.Confidence = 0.5
	if _, err := Predict(opts); err == nil {
		t.Error("untabulated confidence accepted")
	}
}

// TestReplicatedPredictionsStayAccurate keeps the new estimators honest
// against the ground truth. At this tiny test resolution each replicate
// extrapolates from only ~8% of pixels, so the replicated mean is noisier
// than one big draw — the bound is relative to uniform, not absolute.
func TestReplicatedPredictionsStayAccurate(t *testing.T) {
	ref, err := Reference(small("BUNNY").Config, "BUNNY", 64, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := small("BUNNY")
	base.FixedFraction = 0.4
	uni, err := Predict(base)
	if err != nil {
		t.Fatal(err)
	}
	uniMAE := metrics.MAE(uni.Errors(ref), metrics.All())
	opts := replicatedOpts("BUNNY", sampling.Stratified)
	opts.FixedFraction = 0.4
	res, err := Predict(opts)
	if err != nil {
		t.Fatal(err)
	}
	mae := metrics.MAE(res.Errors(ref), metrics.All())
	if math.IsNaN(mae) || mae > 2.5*uniMAE {
		t.Errorf("stratified MAE %v vs uniform %v at 40%% pixels; estimator looks broken",
			mae, uniMAE)
	}
}
