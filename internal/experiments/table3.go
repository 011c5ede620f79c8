package experiments

import (
	"fmt"
	"io"
	"math"

	"zatel/internal/config"
	"zatel/internal/core"
	"zatel/internal/metrics"
	"zatel/internal/sampling"
)

// Table III of the paper tunes two Zatel parameters — the colour
// distribution (uniform / lintmp / exptmp) and the section-block size
// (32×1, 32×2, 32×16, 32×32) — on the three temperature-profile scenes
// SHIP (coldest), WKND (mixed) and BUNNY (warmest), tracing only 2–4% of
// pixels and averaging five random selections.

// Table3Scenes are the tuning scenes in paper order.
func Table3Scenes() []string { return []string{"SHIP", "WKND", "BUNNY"} }

// Table3Dists are the candidate distributions.
func Table3Dists() []sampling.Distribution {
	return []sampling.Distribution{sampling.Uniform, sampling.LinTmp, sampling.ExpTmp}
}

// Table3Sections are the candidate section-block heights (width fixed at
// the warp size, 32).
func Table3Sections() []int { return []int{1, 2, 16, 32} }

// Table3Cell is one (distribution, section) configuration's average error
// for one metric on one scene.
type Table3Cell struct {
	Dist    sampling.Distribution
	Section int // block height; width is always 32
	Err     float64
	// Failed marks a cell whose grid point errored after retries; Err is
	// meaningless and pickBest skips the cell.
	Failed bool
}

// Table3Best summarises one metric row of the table for one scene.
type Table3Best struct {
	// BestDist / BestSection name the winner, or "any" when the options
	// are within 10% relative error of each other.
	BestDist    string
	BestSection string
	// MAE is the winning configuration's error (NaN when every candidate
	// cell failed, rendered as ERR).
	MAE float64
}

// Table3Result holds the full grid plus the per-metric winners.
type Table3Result struct {
	Settings Settings
	Config   string
	// Cells[scene][metric] lists every configuration tried.
	Cells map[string]map[metrics.Metric][]Table3Cell
	// Best[scene][metric] is the winning configuration.
	Best map[string]map[metrics.Metric]Table3Best
	// SceneMAE averages the best-cell errors per scene (the paper reports
	// 21.0% SHIP, 13.9% WKND, 8.5% BUNNY).
	SceneMAE map[string]float64
	// Pool is the tuning grid's worker-pool accounting.
	Pool PoolStats
	// Faults tallies failed and degraded grid points for the legend.
	Faults FaultTally
}

// Table3 runs the tuning grid: 3 scenes × 3 distributions × 4 section
// sizes × reps random selections at 3% of pixels.
func Table3(s Settings, cfg config.Config, reps int) (*Table3Result, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	if reps <= 0 {
		reps = 5
	}
	out := &Table3Result{
		Settings: s,
		Config:   cfg.Name,
		Cells:    map[string]map[metrics.Metric][]Table3Cell{},
		Best:     map[string]map[metrics.Metric]Table3Best{},
		SceneMAE: map[string]float64{},
	}
	// The (scene × distribution × section × rep) grid is flattened onto the
	// worker pool, one point per repetition: point cell*reps+rep, so every
	// repetition is its own prediction and fails independently.
	scenes, dists, sections := Table3Scenes(), Table3Dists(), Table3Sections()
	var points []core.Options
	for _, sc := range scenes {
		for _, dist := range dists {
			for _, section := range sections {
				for rep := 0; rep < reps; rep++ {
					opts := s.baseOptions(cfg, sc)
					opts.NoDownscale = true
					opts.Division = core.CoarseGrained
					opts.BlockW, opts.BlockH = 32, section
					opts.Dist = dist
					// Table 3 sweeps its own distributions; drop any
					// replicated-only CI knobs inherited from Settings so
					// validation passes for the point-estimate strategies
					// it compares.
					opts.Sampling = core.SamplingOptions{}
					opts.TargetCIHalfWidth = 0
					opts.FixedFraction = 0.03
					opts.Seed = uint64(rep)*977 + 13
					points = append(points, opts)
				}
			}
		}
	}
	if err := s.warm(points); err != nil {
		return nil, err
	}
	outs, pool, _ := s.runGrid(points, func(i int) string {
		o := points[i]
		return fmt.Sprintf("table3 %s/%s/32x%d", o.Scene, o.Dist, o.BlockH)
	})
	out.Pool = pool

	// A cell averages its repetitions; it fails with its first failed
	// repetition and counts as degraded when any repetition was.
	cell := 0
	for _, sc := range scenes {
		out.Cells[sc] = map[metrics.Metric][]Table3Cell{}
		for _, dist := range dists {
			for _, section := range sections {
				sums := map[metrics.Metric]float64{}
				var err error
				degraded := false
				for _, o := range outs[cell*reps : (cell+1)*reps] {
					if err = o.err; err != nil {
						break
					}
					degraded = degraded || o.degraded() > 0
					for m, e := range o.res.Errors(o.ref) {
						sums[m] += e
					}
				}
				for m := range sums {
					sums[m] /= float64(reps)
				}
				cell++
				failed := out.Faults.noteErr(err)
				if !failed && degraded {
					out.Faults.Degraded++
				}
				for _, m := range metrics.All() {
					out.Cells[sc][m] = append(out.Cells[sc][m], Table3Cell{
						Dist:    dist,
						Section: section,
						Err:     sums[m],
						Failed:  failed,
					})
				}
			}
		}
		// Pick winners per metric.
		out.Best[sc] = map[metrics.Metric]Table3Best{}
		var maeSum float64
		finite := 0
		for _, m := range metrics.All() {
			best := pickBest(out.Cells[sc][m])
			out.Best[sc][m] = best
			if !math.IsNaN(best.MAE) {
				maeSum += best.MAE
				finite++
			}
		}
		if finite > 0 {
			out.SceneMAE[sc] = maeSum / float64(finite)
		} else {
			out.SceneMAE[sc] = math.NaN()
		}
	}
	return out, nil
}

// pickBest finds the lowest-error cell among the surviving candidates and
// decides whether the distribution or section choice actually matters
// ("any" when all options land within 10% relative of the winner). Failed
// cells are excluded; with no survivors the row renders as ERR (NaN MAE).
func pickBest(cells []Table3Cell) Table3Best {
	best := Table3Cell{Failed: true}
	for _, c := range cells {
		if c.Failed {
			continue
		}
		if best.Failed || c.Err < best.Err {
			best = c
		}
	}
	if best.Failed {
		return Table3Best{BestDist: "ERR", BestSection: "ERR", MAE: math.NaN()}
	}
	tol := best.Err*1.10 + 1e-9
	distMatters, sectionMatters := false, false
	// The distribution matters if some other distribution (at the best
	// section size) exceeds the tolerance; likewise for sections. Failed
	// cells abstain from the comparison.
	for _, c := range cells {
		if c.Failed {
			continue
		}
		if c.Section == best.Section && c.Err > tol {
			distMatters = true
		}
		if c.Dist == best.Dist && c.Err > tol {
			sectionMatters = true
		}
	}
	out := Table3Best{BestDist: "any", BestSection: "any", MAE: best.Err}
	if distMatters {
		out.BestDist = best.Dist.String()
	}
	if sectionMatters {
		out.BestSection = fmt.Sprintf("32x%d", best.Section)
	}
	return out
}

// Render prints the paper-style table: per scene, per metric, the best
// distribution and section size with the resulting MAE.
func (r *Table3Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Table III — tuning distribution and section size (%s, %dx%d, ~3%% pixels)\n",
		r.Config, r.Settings.Width, r.Settings.Height)
	for _, sc := range Table3Scenes() {
		sceneMAE := "ERR"
		if !math.IsNaN(r.SceneMAE[sc]) {
			sceneMAE = pct(r.SceneMAE[sc])
		}
		fmt.Fprintf(w, "\n%s (scene MAE %s):\n", sc, sceneMAE)
		hr(w, 70)
		fmt.Fprintf(w, "%-22s%12s%14s%10s\n", "Metric", "Best Dist", "Best Section", "MAE")
		for _, m := range metrics.All() {
			b := r.Best[sc][m]
			mae := "ERR"
			if !math.IsNaN(b.MAE) {
				mae = pct(b.MAE)
			}
			fmt.Fprintf(w, "%-22s%12s%14s%10s\n", m, b.BestDist, b.BestSection, mae)
		}
	}
	fmt.Fprintln(w)
	r.Pool.Render(w)
	r.Faults.Render(w)
	fmt.Fprintln(w, "(paper: scene MAEs 21.0% SHIP / 13.9% WKND / 8.5% BUNNY — warmer scenes predict better;")
	fmt.Fprintln(w, " most cells are \"any\"; uniform wins where it matters; exptmp favours RT metrics)")
}
