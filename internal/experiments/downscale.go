package experiments

import (
	"fmt"
	"io"
	"time"

	"zatel/internal/config"
	"zatel/internal/core"
	"zatel/internal/metrics"
	"zatel/internal/scene"
)

// The Section IV-E downscaling experiments (Figs. 17, 18 and 19): sweep the
// downscaling factor, simulate a single downscaled group tracing all of its
// 1/K pixels, and compare against the full simulation. K must divide both
// the SM count and the memory-partition count, so each configuration has
// its own valid sweep.

// ValidFactors returns the downscaling factors in [2, 6] that divide the
// configuration's component counts (the paper sweeps 2–6).
func ValidFactors(cfg config.Config) []int {
	var ks []int
	for k := 2; k <= 6; k++ {
		if cfg.NumSMs%k == 0 && cfg.NumMemPartitions%k == 0 {
			ks = append(ks, k)
		}
	}
	return ks
}

// DownscalePoint is one (scene, K, division) measurement.
type DownscalePoint struct {
	Scene    string
	K        int
	Division core.Division
	Errors   map[metrics.Metric]float64
	SimWall  time.Duration
	RefWall  time.Duration
	Speedup  float64
	// RefLoaded is set when the reference was loaded from the store, so
	// RefWall is another process's.
	RefLoaded bool
	// Err is the point's failure (nil on success); failed points render as
	// ERR cells and are excluded from the per-factor means.
	Err error
	// DegradedGroups counts groups the prediction lost to failures.
	DegradedGroups int
	// work is the point's simulated-work ratio (see outcome.work).
	work float64
}

// DownscaleResult backs Figs. 17/18 (errors per factor, fine vs coarse) and
// Fig. 19 (speedup per factor).
type DownscaleResult struct {
	Settings Settings
	Config   string
	Scenes   []string
	Factors  []int
	// Points indexed [division][scene][factor position].
	Points map[core.Division]map[string][]DownscalePoint
	// Pool is the sweep grid's worker-pool accounting.
	Pool PoolStats
	// Faults tallies failed and degraded grid points for the legend.
	Faults FaultTally
}

// DownscaleSweep runs the downscaling-factor sweep on the given scenes
// with both division methods.
func DownscaleSweep(s Settings, cfg config.Config, scenes []string) (*DownscaleResult, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	if len(scenes) == 0 {
		scenes = scene.RepresentativeSubset()
	}
	factors := ValidFactors(cfg)
	if len(factors) == 0 {
		return nil, fmt.Errorf("downscale: no valid factors for %s", cfg.Name)
	}
	out := &DownscaleResult{
		Settings: s,
		Config:   cfg.Name,
		Scenes:   scenes,
		Factors:  factors,
		Points:   map[core.Division]map[string][]DownscalePoint{},
	}
	// The (division × scene × factor) grid on the pool, after the
	// references (the speedup column shows wall time).
	divs := []core.Division{core.FineGrained, core.CoarseGrained}
	var points []core.Options
	for _, div := range divs {
		for _, sc := range scenes {
			for _, k := range factors {
				opts := s.baseOptions(cfg, sc)
				opts.K = k
				opts.Division = div
				opts.SingleGroup = true
				opts.FixedFraction = 1 // trace every pixel of the group
				points = append(points, opts)
			}
		}
	}
	refs, err := s.warm(points)
	if err != nil {
		return nil, err
	}
	outs, pool, faults := s.runGrid(points, refs, func(i int) string {
		o := points[i]
		return fmt.Sprintf("downscale %s K=%d %s", o.Scene, o.K, o.Division)
	})
	out.Pool, out.Faults = pool, faults
	i := 0
	for _, div := range divs {
		out.Points[div] = map[string][]DownscalePoint{}
		for _, sc := range scenes {
			pts := make([]DownscalePoint, len(factors))
			for ki, k := range factors {
				o := outs[i]
				i++
				pt := DownscalePoint{Scene: sc, K: k, Division: div, Err: o.err, DegradedGroups: o.degraded()}
				if o.err == nil {
					pt.Errors = o.res.Errors(o.ref)
					pt.SimWall = o.res.PreprocessTime + o.res.SimWallTime
					pt.RefWall = o.ref.WallTime
					pt.Speedup = o.res.Speedup(o.ref)
					pt.RefLoaded = o.refLoaded
					pt.work = o.work()
				}
				pts[ki] = pt
			}
			out.Points[div][sc] = pts
		}
	}
	return out, nil
}

// RenderErrors prints the per-metric mean error (over scenes) per factor
// for both division methods — the content of Fig. 17 (representative
// subset) or Fig. 18 (all scenes), depending on which scenes were swept.
func (r *DownscaleResult) RenderErrors(w io.Writer, figure string) {
	fmt.Fprintf(w, "%s — mean error per downscaling factor over %d scenes (%s, %dx%d)\n",
		figure, len(r.Scenes), r.Config, r.Settings.Width, r.Settings.Height)
	for _, div := range []core.Division{core.FineGrained, core.CoarseGrained} {
		fmt.Fprintf(w, "\n%s-grained division:\n", div)
		hr(w, 24+14*len(metrics.All()))
		fmt.Fprintf(w, "%-6s", "K")
		for _, m := range metrics.All() {
			fmt.Fprintf(w, "%22s", m)
		}
		fmt.Fprintln(w)
		for ki, k := range r.Factors {
			fmt.Fprintf(w, "%-6d", k)
			for _, m := range metrics.All() {
				sum, n := 0.0, 0
				for _, sc := range r.Scenes {
					if pt := r.Points[div][sc][ki]; pt.Err == nil {
						sum += pt.Errors[m]
						n++
					}
				}
				switch {
				case n == 0:
					fmt.Fprintf(w, "%22s", "ERR")
				case n < len(r.Scenes):
					// Partial mean: some scenes' points failed.
					fmt.Fprintf(w, "%22s", pct(sum/float64(n))+"*")
				default:
					fmt.Fprintf(w, "%22s", pct(sum/float64(n)))
				}
			}
			fmt.Fprintln(w)
		}
	}
	if r.Faults.Failed > 0 {
		fmt.Fprintln(w, "* mean over surviving scenes only (some points failed)")
	}
	r.Faults.Render(w)
	fmt.Fprintln(w, "\n(paper: fine-grained keeps cycles/IPC error <12% even at K=6; DRAM-side metrics")
	fmt.Fprintln(w, " degrade with downscaling; coarse-grained is less stable than fine-grained)")
}

// RenderSpeedup prints Fig. 19: speedup per scene per factor (fine-grained).
func (r *DownscaleResult) RenderSpeedup(w io.Writer) {
	fmt.Fprintf(w, "Fig. 19 — speedup from GPU downscaling (%s, fine-grained, %dx%d)\n",
		r.Config, r.Settings.Width, r.Settings.Height)
	sceneTable(w, "K", r.Factors, r.Scenes, func(ki int, sc string) string {
		pt := r.Points[core.FineGrained][sc][ki]
		return faultCell(pt.Err != nil, pt.DegradedGroups, loadedCell(pt.RefLoaded, fmt.Sprintf("%.1fx", pt.Speedup)))
	})
	r.Pool.Render(w)
	r.Pool.renderLoaded(w)
	r.Faults.Render(w)
	fmt.Fprintln(w, "(paper: downscaling speedups track the pixel-reduction speedups of Fig. 15 —")
	fmt.Fprintln(w, " downscaling itself does not significantly reduce execution time)")
}
