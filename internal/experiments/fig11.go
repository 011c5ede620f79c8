package experiments

import (
	"fmt"
	"io"

	"zatel/internal/core"
	"zatel/internal/metrics"
)

// Fig11Result reproduces Fig. 11: every metric of the RTX 2060
// configuration normalized to the Mobile SoC baseline, once measured by the
// full simulator (the paper's orange bars) and once predicted by Zatel (the
// blue bars). Zatel's worth as a design-space tool rests on the two series
// matching.
type Fig11Result struct {
	Settings Settings
	// FullSim and Zatel map each metric to RTX2060 value / MobileSoC value.
	FullSim map[metrics.Metric]float64
	Zatel   map[metrics.Metric]float64
	// Diff is |Zatel−FullSim| per metric (the paper reports max 37.6% for
	// L2 miss rate and min 0.6% for L1D).
	Diff map[metrics.Metric]float64
	// Failed lists per-config failures ("name: cause"); the normalized
	// series need both configs, so any entry leaves the maps empty and the
	// table renders the failure note instead.
	Failed []string
	// Pool is the per-config job grid's worker-pool accounting.
	Pool PoolStats
	// Faults tallies failed and degraded predictions for the legend.
	Faults FaultTally
}

// Fig11 measures the normalized architecture comparison on PARK.
func Fig11(s Settings) (*Fig11Result, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	// One point per configuration. No wall-time column here, so each
	// reference runs inside its point, sharing the pool with the other.
	cfgs := Configs()
	points := make([]core.Options, len(cfgs))
	for i, cfg := range cfgs {
		points[i] = s.baseOptions(cfg, "PARK")
	}
	outs, pool, faults := s.runGrid(points, func(i int) string { return "fig11 " + cfgs[i].Name })

	out := &Fig11Result{
		Settings: s,
		FullSim:  map[metrics.Metric]float64{},
		Zatel:    map[metrics.Metric]float64{},
		Diff:     map[metrics.Metric]float64{},
		Pool:     pool,
		Faults:   faults,
	}
	for i, o := range outs {
		if o.err != nil {
			out.Failed = append(out.Failed, fmt.Sprintf("%s: %v", cfgs[i].Name, o.err))
		}
	}
	if len(out.Failed) > 0 {
		// Both configs are needed to normalize; render the failure instead.
		return out, nil
	}
	refSoC, refRTX := outs[0].ref, outs[1].ref
	predSoC, predRTX := outs[0].res, outs[1].res
	for _, m := range metrics.All() {
		out.FullSim[m] = safeDiv(refRTX.Value(m), refSoC.Value(m))
		out.Zatel[m] = safeDiv(predRTX.Predicted[m], predSoC.Predicted[m])
		d := out.Zatel[m] - out.FullSim[m]
		if d < 0 {
			d = -d
		}
		if out.FullSim[m] != 0 {
			d /= out.FullSim[m]
		}
		out.Diff[m] = d
	}
	return out, nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Render prints the normalized series side by side.
func (r *Fig11Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig. 11 — RTX 2060 normalized to Mobile SoC on PARK (%dx%d, %d spp)\n",
		r.Settings.Width, r.Settings.Height, r.Settings.SPP)
	hr(w, 70)
	if len(r.Failed) > 0 {
		fmt.Fprintln(w, "normalized comparison unavailable — prediction(s) failed:")
		for _, f := range r.Failed {
			fmt.Fprintf(w, "  %s\n", f)
		}
		r.Pool.Render(w)
		r.Faults.Render(w)
		return
	}
	fmt.Fprintf(w, "%-22s%12s%12s%14s\n", "Metric", "FullSim", "Zatel", "|diff|")
	for _, m := range metrics.All() {
		fmt.Fprintf(w, "%-22s%12.3f%12.3f%14s\n",
			m, r.FullSim[m], r.Zatel[m], pct(r.Diff[m]))
	}
	r.Pool.Render(w)
	r.Faults.Render(w)
	fmt.Fprintln(w, "(paper: max normalized difference 37.6% on L2 miss rate, min 0.6% on L1D)")
}
