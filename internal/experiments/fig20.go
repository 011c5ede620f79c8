package experiments

import (
	"fmt"
	"io"

	"zatel/internal/combine"
	"zatel/internal/config"
	"zatel/internal/core"
	"zatel/internal/metrics"
)

// Fig20Result reproduces the Section IV-F extrapolation study: exponential
// regression through runs at 20/30/40% of pixels versus simply tracing 40%
// and extrapolating linearly (the baseline). The paper found regression
// loses more than it gains; the WorseCount/total ratio captures that.
type Fig20Result struct {
	Settings Settings
	Config   string
	Scenes   []string
	// RegErr and DirectErr map [scene][metric] to the absolute error of
	// the regression prediction and of the direct 40% prediction. Failed
	// scenes have no entries.
	RegErr    map[string]map[metrics.Metric]float64
	DirectErr map[string]map[metrics.Metric]float64
	// Failed maps a scene to its failure; failed scenes render as ERR and
	// abstain from the WorseCount/Total ratio.
	Failed map[string]string
	// WorseCount counts (scene, metric) pairs where regression is less
	// accurate; Total is the number of pairs over surviving scenes.
	WorseCount int
	Total      int
	// Pool is the per-scene job grid's worker-pool accounting.
	Pool PoolStats
	// Faults tallies failed and degraded scenes for the legend.
	Faults FaultTally
}

// Fig20 runs the regression-vs-direct comparison on every scene. The
// regression prediction reuses its own 40% run as the direct baseline, so
// each scene costs three simulations.
func Fig20(s Settings, cfg config.Config, scenes []string) (*Fig20Result, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	if len(scenes) == 0 {
		scenes = AllScenes()
	}
	out := &Fig20Result{
		Settings:  s,
		Config:    cfg.Name,
		Scenes:    scenes,
		RegErr:    map[string]map[metrics.Metric]float64{},
		DirectErr: map[string]map[metrics.Metric]float64{},
		Failed:    map[string]string{},
	}
	// One point per scene; each runs the three regression simulations (and,
	// with no wall-time column, its own reference) on the pool.
	points := make([]core.Options, len(scenes))
	for i, sc := range scenes {
		points[i] = s.baseOptions(cfg, sc)
		points[i].NoDownscale = true
		points[i].Regression = true
	}
	outs, pool, faults := s.runGrid(points, func(i int) string { return "fig20 " + scenes[i] })
	out.Pool, out.Faults = pool, faults
	for i, sc := range scenes {
		o := outs[i]
		if o.err != nil {
			out.Failed[sc] = o.err.Error()
			continue
		}
		// The direct baseline: linear extrapolation of the 40% run the
		// regression already performed.
		direct, err := combine.Linear(o.res.Groups[0].Report, o.res.Groups[0].Fraction)
		if err != nil {
			err = fmt.Errorf("fig20 %s direct: %w", sc, err)
			out.Faults.noteErr(err)
			out.Failed[sc] = err.Error()
			continue
		}
		out.RegErr[sc] = o.res.Errors(o.ref)
		out.DirectErr[sc] = map[metrics.Metric]float64{}
		for _, m := range metrics.All() {
			out.DirectErr[sc][m] = metrics.AbsErr(direct[m], o.ref.Value(m))
		}
		for _, m := range metrics.All() {
			out.Total++
			if out.RegErr[sc][m] > out.DirectErr[sc][m]+1e-12 {
				out.WorseCount++
			}
		}
	}
	return out, nil
}

// Render prints per-scene regression vs direct errors and the paper's
// headline ratio.
func (r *Fig20Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig. 20 — exponential regression (20/30/40%%) vs direct 40%% (%s, %dx%d)\n",
		r.Config, r.Settings.Width, r.Settings.Height)
	for _, sc := range r.Scenes {
		fmt.Fprintf(w, "\n%s:\n", sc)
		hr(w, 64)
		if cause, failed := r.Failed[sc]; failed {
			fmt.Fprintf(w, "ERR: %s\n", cause)
			continue
		}
		fmt.Fprintf(w, "%-22s%14s%14s%10s\n", "Metric", "regression", "direct 40%", "worse?")
		for _, m := range metrics.All() {
			worse := ""
			if r.RegErr[sc][m] > r.DirectErr[sc][m]+1e-12 {
				worse = "yes"
			}
			fmt.Fprintf(w, "%-22s%14s%14s%10s\n",
				m, pct(r.RegErr[sc][m]), pct(r.DirectErr[sc][m]), worse)
		}
	}
	frac := 0.0
	if r.Total > 0 {
		frac = float64(r.WorseCount) / float64(r.Total)
	}
	fmt.Fprintf(w, "\nregression worse on %d/%d metric-scene pairs (%.0f%%)\n",
		r.WorseCount, r.Total, 100*frac)
	r.Pool.Render(w)
	r.Faults.Render(w)
	fmt.Fprintln(w, "(paper: 62% of metrics worse with regression on RTX 2060 — no clear advantage")
	fmt.Fprintln(w, " while costing three simulator runs)")
}
