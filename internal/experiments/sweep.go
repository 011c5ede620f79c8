package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"zatel/internal/config"
	"zatel/internal/core"
	"zatel/internal/extrapolate"
	"zatel/internal/metrics"
)

// SweepPoint is one (scene, percent) measurement of the Section IV-D sweep:
// Zatel run on a fixed fraction of pixels with no GPU downscaling.
type SweepPoint struct {
	Scene   string
	Percent int
	// Errors holds the per-metric absolute error against the reference.
	Errors map[metrics.Metric]float64
	// CIHalf holds the per-metric relative confidence half-width
	// (half-width / |mean|) when the sweep ran a replicated strategy; nil
	// otherwise. Tables render it as a ± error bar next to the cell value.
	CIHalf map[metrics.Metric]float64
	// SimWall is Zatel's preprocessing+simulation wall time; RefWall the
	// full simulation's.
	SimWall time.Duration
	RefWall time.Duration
	// Speedup is RefWall / SimWall.
	Speedup float64
	// Err is the point's failure after the prediction's own retries and
	// degradation ran out (nil on success); failed points render as ERR
	// cells instead of aborting the sweep.
	Err error
	// DegradedGroups counts groups the prediction lost to failures
	// (0 = clean).
	DegradedGroups int
	// work is the point's simulated-work ratio (see outcome.work).
	work float64
}

// SweepResult is the shared data behind Figs. 13, 14, 15 and 16: the same
// {10%,…,90%} × scene grid viewed through four lenses.
type SweepResult struct {
	Settings Settings
	Config   string
	Scenes   []string
	Percents []int
	// Points is indexed [scene][percent position].
	Points map[string][]SweepPoint
	// FitA/FitB is the Eq. 4-style power fit speedup = A·perc^B derived
	// from all measured speedups; FitErr records why the fit is
	// unavailable when it failed.
	FitA, FitB float64
	FitErr     string
	// Pool is the grid's worker-pool accounting (cpu vs wall time).
	Pool PoolStats
	// Faults tallies failed and degraded grid points for the legend.
	Faults FaultTally
}

// PercentSweep runs Zatel at {10..90}% of pixels without downscaling on
// every scene (Section IV-D) and collects errors, running times and
// speedups.
func PercentSweep(s Settings, cfg config.Config, scenes []string) (*SweepResult, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	if len(scenes) == 0 {
		scenes = AllScenes()
	}
	percents := []int{10, 20, 30, 40, 50, 60, 70, 80, 90}
	out := &SweepResult{
		Settings: s,
		Config:   cfg.Name,
		Scenes:   scenes,
		Percents: percents,
		Points:   map[string][]SweepPoint{},
	}
	// The (scene × percent) grid points are independent simulations —
	// exactly the short concurrent runs the methodology amortizes — so
	// they fan out on the worker pool in one flat grid.
	np := len(percents)
	points := make([]core.Options, 0, len(scenes)*np)
	for _, sc := range scenes {
		for _, p := range percents {
			opts := s.baseOptions(cfg, sc)
			opts.NoDownscale = true
			opts.FixedFraction = float64(p) / 100
			points = append(points, opts)
		}
	}
	if err := s.warm(points); err != nil {
		return nil, err
	}
	outs, pool, faults := s.runGrid(points, func(i int) string {
		return fmt.Sprintf("sweep %s@%d%%", scenes[i/np], percents[i%np])
	})
	out.Pool, out.Faults = pool, faults

	var xs, ys []float64
	for si, sc := range scenes {
		pts := make([]SweepPoint, np)
		for pi, p := range percents {
			o := outs[si*np+pi]
			pt := SweepPoint{Scene: sc, Percent: p, Err: o.err, DegradedGroups: o.degraded()}
			if o.err == nil {
				pt.Errors = o.res.Errors(o.ref)
				pt.SimWall = o.res.PreprocessTime + o.res.SimWallTime
				pt.RefWall = o.ref.WallTime
				pt.Speedup = o.res.Speedup(o.ref)
				pt.work = o.work()
				if o.res.Intervals != nil {
					pt.CIHalf = make(map[metrics.Metric]float64, len(o.res.Intervals))
					for m, iv := range o.res.Intervals {
						hw := iv.HalfWidth()
						if mean := math.Abs(iv.Mean); mean > 0 {
							hw /= mean
						}
						pt.CIHalf[m] = hw
					}
				}
			}
			pts[pi] = pt
			if pt.Err == nil && pt.Speedup > 0 {
				xs = append(xs, float64(pt.Percent))
				ys = append(ys, pt.Speedup)
			}
		}
		out.Points[sc] = pts
	}
	if a, b, err := extrapolate.PowerFit(xs, ys); err == nil {
		out.FitA, out.FitB = a, b
	} else {
		// A failed fit must not masquerade as "0.0 * perc^0.00".
		out.FitErr = err.Error()
	}
	return out, nil
}

// RenderFig13 prints the simulation-cycles error per scene against the
// percentage of pixels traced; with a replicated strategy each cell carries
// its ± relative CI half-width.
func (r *SweepResult) RenderFig13(w io.Writer) {
	fmt.Fprintf(w, "Fig. 13 — simulation cycles error per scene (%s, %dx%d)\n",
		r.Config, r.Settings.Width, r.Settings.Height)
	r.renderPerScene(w, func(pt SweepPoint) string {
		return pctCI(pt.Errors[metrics.SimCycles], pt.CIHalf, metrics.SimCycles)
	})
	fmt.Fprintln(w, "(paper: errors converge exponentially to 0; SPRNG is the >100% outlier at 10%)")
}

// pctCI renders value as a percentage, appending the metric's ± relative CI
// half-width error bar when the point carries one.
func pctCI(value float64, ciHalf map[metrics.Metric]float64, m metrics.Metric) string {
	if hw, ok := ciHalf[m]; ok {
		return fmt.Sprintf("%.1f±%.1f%%", 100*value, 100*hw)
	}
	return pct(value)
}

// RenderFig14 prints Zatel's running time per scene.
func (r *SweepResult) RenderFig14(w io.Writer) {
	fmt.Fprintf(w, "Fig. 14 — Zatel running time per scene (%s, %dx%d)\n",
		r.Config, r.Settings.Width, r.Settings.Height)
	r.renderPerScene(w, func(pt SweepPoint) string { return fmtDur(pt.SimWall) })
	r.Pool.Render(w)
	fmt.Fprintln(w, "(cells are per-run serial-equivalent times; the pool line shows the grid's")
	fmt.Fprintln(w, " actual wall time; paper: time grows linearly with % pixels; BATH runs longest)")
}

// RenderFig15 prints the speedup per scene plus the Eq. 4 fit.
func (r *SweepResult) RenderFig15(w io.Writer) {
	fmt.Fprintf(w, "Fig. 15 — running-time speedup per scene (%s, %dx%d)\n",
		r.Config, r.Settings.Width, r.Settings.Height)
	r.renderPerScene(w, func(pt SweepPoint) string { return fmt.Sprintf("%.1fx", pt.Speedup) })
	r.Pool.Render(w)
	if r.FitErr != "" {
		fmt.Fprintf(w, "power fit unavailable: %s   (paper Eq. 4: 181 * perc^-1.15)\n", r.FitErr)
	} else {
		fmt.Fprintf(w, "power fit: speedup(perc) = %.1f * perc^%.2f   (paper Eq. 4: 181 * perc^-1.15)\n",
			r.FitA, r.FitB)
	}
	ref10, _ := extrapolate.SpeedupModel(10)
	ref50, _ := extrapolate.SpeedupModel(50)
	ref90, _ := extrapolate.SpeedupModel(90)
	fmt.Fprintf(w, "Eq. 4 reference at 10/50/90%%: %.1fx / %.1fx / %.1fx\n", ref10, ref50, ref90)
}

// RenderFig16 prints the per-metric mean/min/max absolute error over all
// scenes per percentage.
func (r *SweepResult) RenderFig16(w io.Writer) {
	fmt.Fprintf(w, "Fig. 16 — per-metric error over all scenes (%s, %dx%d): mean [min..max]\n",
		r.Config, r.Settings.Width, r.Settings.Height)
	hr(w, 110)
	fmt.Fprintf(w, "%-6s", "%px")
	for _, m := range metrics.All() {
		fmt.Fprintf(w, "%26s", m)
	}
	fmt.Fprintln(w)
	for pi, p := range r.Percents {
		fmt.Fprintf(w, "%-6d", p)
		for _, m := range metrics.All() {
			lo, hi, sum := math.Inf(1), math.Inf(-1), 0.0
			n := 0
			hwSum, hwN := 0.0, 0
			for _, sc := range r.Scenes {
				pt := r.Points[sc][pi]
				if pt.Err != nil {
					continue
				}
				e := pt.Errors[m]
				if math.IsInf(e, 0) {
					continue
				}
				lo, hi = math.Min(lo, e), math.Max(hi, e)
				sum += e
				n++
				if hw, ok := pt.CIHalf[m]; ok {
					hwSum += hw
					hwN++
				}
			}
			if n == 0 {
				fmt.Fprintf(w, "%26s", "-")
				continue
			}
			cell := pct(sum / float64(n))
			if hwN > 0 {
				// Mean ± mean relative CI half-width over the scenes.
				cell = fmt.Sprintf("%.1f±%.1f%%", 100*sum/float64(n), 100*hwSum/float64(hwN))
			}
			fmt.Fprintf(w, "%9s [%5.1f..%6.1f]", cell, 100*lo, 100*hi)
		}
		fmt.Fprintln(w)
	}
	r.Faults.Render(w)
	fmt.Fprintln(w, "(paper: MAE decreases exponentially with % traced; cache metrics saturate fastest)")
}

func (r *SweepResult) renderPerScene(w io.Writer, cell func(SweepPoint) string) {
	sceneTable(w, "%px", r.Percents, r.Scenes, func(pi int, sc string) string {
		pt := r.Points[sc][pi]
		return faultCell(pt.Err != nil, pt.DegradedGroups, cell(pt))
	})
	r.Faults.Render(w)
}

// sceneTable prints one row per parameter value and one column per scene.
func sceneTable(w io.Writer, label string, rows []int, scenes []string, cell func(row int, sc string) string) {
	hr(w, 12+12*len(scenes))
	fmt.Fprintf(w, "%-6s", label)
	for _, sc := range scenes {
		fmt.Fprintf(w, "%12s", sc)
	}
	fmt.Fprintln(w)
	for ri, v := range rows {
		fmt.Fprintf(w, "%-6d", v)
		for _, sc := range scenes {
			fmt.Fprintf(w, "%12s", cell(ri, sc))
		}
		fmt.Fprintln(w)
	}
}
