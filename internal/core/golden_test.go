package core

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"zatel/internal/combine"
	"zatel/internal/config"
	"zatel/internal/faults"
	"zatel/internal/metrics"
	"zatel/internal/sampling"
)

// predictGoldenPath pins steps 4–7 of the pipeline byte for byte: for every
// case of goldenCases on SPRNG and SHIP at 48², spp 1, on the Mobile SoC
// and the RTX 2060, the cache key, the prediction and its intervals as
// float64 bits, every group's shape, simulator report (wall time zeroed),
// intervals, rounds, attempts and error, and the degradation. No wall-clock
// field is recorded. Regenerate only when the prediction intentionally
// changes, via
//
//	ZATEL_UPDATE_GOLDEN=1 go test ./internal/core -run TestPredictGolden
const predictGoldenPath = "testdata/predict_golden.json"

// goldenCases are the option variants the golden pins, applied on top of
// the base options of one (scene, config) cell.
var goldenCases = []struct {
	name string
	set  func(o *Options)
}{
	{"uniform", func(o *Options) {}},
	{"lintmp-0.3", func(o *Options) { o.Dist, o.FixedFraction = sampling.LinTmp, 0.3 }},
	{"exptmp-0.3", func(o *Options) { o.Dist, o.FixedFraction = sampling.ExpTmp, 0.3 }},
	{"maxfrac-0.1", func(o *Options) { o.MaxFraction = 0.1 }},
	{"regression", func(o *Options) { o.Regression = true }},
	{"coarse", func(o *Options) { o.Division = CoarseGrained }},
	{"single-group", func(o *Options) { o.SingleGroup = true }},
	{"nodownscale-0.5", func(o *Options) { o.NoDownscale, o.FixedFraction = true, 0.5 }},
	{"k2", func(o *Options) { o.K = 2 }},
	{"stratified", func(o *Options) { o.Dist = sampling.Stratified }},
	{"rankedset-ci", func(o *Options) {
		o.Dist, o.TargetCIHalfWidth, o.MaxFraction = sampling.RankedSet, 0.05, 0.2
	}},
	{"inject-uniform-a1", func(o *Options) {
		o.FT.Inject = faults.Config{ErrorRate: 0.3, Seed: 3}
	}},
	{"inject-stratified-a1", func(o *Options) {
		o.Dist = sampling.Stratified
		o.FT.Inject = faults.Config{ErrorRate: 0.3, Seed: 3}
	}},
	{"inject-uniform-a3", func(o *Options) {
		o.FT.Attempts = 3
		o.FT.Inject = faults.Config{ErrorRate: 0.5, Seed: 3}
	}},
	{"parallel-w2", func(o *Options) { o.Parallel, o.Workers = true, 2 }},
}

// goldenInterval is an extrapolate.Interval with its endpoints as bits.
type goldenInterval struct {
	Mean, Low, High uint64
	Replicates      int
}

type goldenGroup struct {
	Pixels, Selected int
	Fraction         uint64
	Report           metrics.Report
	Intervals        map[string]goldenInterval `json:",omitempty"`
	Replicates       int
	Rounds           int
	TargetMet        bool
	Attempts         int
	Err              string `json:",omitempty"`
}

type goldenDegraded struct {
	FailedGroups      []int
	GroupErrors       map[int]string
	Attempts          map[int]int
	Quorum, Survivors int
	Total             int
}

type goldenPrediction struct {
	CacheKey  string
	Err       string                    `json:",omitempty"`
	K         int                       `json:",omitempty"`
	Predicted map[string]uint64         `json:",omitempty"`
	Intervals map[string]goldenInterval `json:",omitempty"`
	Groups    []goldenGroup             `json:",omitempty"`
	Degraded  *goldenDegraded           `json:",omitempty"`
}

func goldenIntervals(ivs combine.GroupIntervals) map[string]goldenInterval {
	if ivs == nil {
		return nil
	}
	out := make(map[string]goldenInterval, len(ivs))
	for m, iv := range ivs {
		out[m.String()] = goldenInterval{
			Mean: math.Float64bits(iv.Mean), Low: math.Float64bits(iv.Low),
			High: math.Float64bits(iv.High), Replicates: iv.Replicates,
		}
	}
	return out
}

// digestPrediction records everything deterministic about one prediction.
func digestPrediction(opts Options, res *Result, err error) goldenPrediction {
	g := goldenPrediction{CacheKey: opts.CacheKey().String()}
	if err != nil {
		g.Err = err.Error()
		return g
	}
	g.K = res.K
	g.Predicted = make(map[string]uint64, len(res.Predicted))
	for m, v := range res.Predicted {
		g.Predicted[m.String()] = math.Float64bits(v)
	}
	g.Intervals = goldenIntervals(res.Intervals)
	for _, r := range res.Groups {
		gr := goldenGroup{
			Pixels: r.Pixels, Selected: r.Selected, Fraction: math.Float64bits(r.Fraction),
			Report: r.Report, Intervals: goldenIntervals(r.Intervals),
			Replicates: r.Replicates, Rounds: r.Rounds, TargetMet: r.TargetMet,
			Attempts: r.Attempts,
		}
		gr.Report.WallTime = 0
		if r.Err != nil {
			gr.Err = r.Err.Error()
		}
		g.Groups = append(g.Groups, gr)
	}
	if d := res.Degraded; d != nil {
		gd := &goldenDegraded{
			FailedGroups: d.FailedGroups, GroupErrors: make(map[int]string), Attempts: make(map[int]int),
			Quorum: d.Quorum, Survivors: d.Survivors, Total: d.Total,
		}
		for _, gi := range d.FailedGroups {
			gd.GroupErrors[gi] = res.Groups[gi].Err.Error()
			gd.Attempts[gi] = res.Groups[gi].Attempts
		}
		g.Degraded = gd
	}
	return g
}

// TestPredictGolden runs the golden matrix and compares every prediction to
// the frozen one, field by field in its JSON form.
func TestPredictGolden(t *testing.T) {
	got := make(map[string]goldenPrediction)
	for _, sc := range []string{"SPRNG", "SHIP"} {
		for _, cfg := range []config.Config{config.MobileSoC(), config.RTX2060()} {
			for _, c := range goldenCases {
				opts := Options{Config: cfg, Scene: sc, Width: 48, Height: 48, SPP: 1}
				c.set(&opts)
				res, err := Predict(opts)
				got[fmt.Sprintf("%s/%s/%s", sc, cfg.Name, c.name)] = digestPrediction(opts, res, err)
			}
		}
	}

	if os.Getenv("ZATEL_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(predictGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(predictGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s with %d predictions", predictGoldenPath, len(got))
		return
	}

	data, err := os.ReadFile(predictGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate with ZATEL_UPDATE_GOLDEN=1 go test ./internal/core -run TestPredictGolden)", err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", predictGoldenPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d predictions, ran %d", predictGoldenPath, len(want), len(got))
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: missing from %s", key, predictGoldenPath)
			continue
		}
		var wantP goldenPrediction
		if err := json.Unmarshal(w, &wantP); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		g, _ := json.Marshal(got[key])
		wb, _ := json.Marshal(wantP)
		if string(g) != string(wb) {
			t.Errorf("%s: prediction diverged from the frozen one:\ngot  %s\nwant %s", key, g, wb)
		}
	}
}
