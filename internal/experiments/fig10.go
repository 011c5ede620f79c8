package experiments

import (
	"fmt"
	"io"
	"sort"

	"zatel/internal/core"
	"zatel/internal/metrics"
)

// Fig10Result reproduces Fig. 10 (absolute error of each metric for the
// fully optimized Zatel on PARK, both GPU configurations) together with the
// Section IV-B headline numbers: per-config MAE and speedup, plus the
// 10%-cap Mobile SoC variant the paper uses to reach ~50× speedup.
type Fig10Result struct {
	Settings Settings
	// Errors[config][metric] is the absolute error of the prediction.
	Errors map[string]map[metrics.Metric]float64
	// MAE and Speedup are per config name.
	MAE     map[string]float64
	Speedup map[string]float64
	// RefLoaded marks the configs whose reference was loaded from the
	// store, so their speedup divides another process's wall time.
	RefLoaded map[string]bool
	// K records the downscaling factor per config.
	K map[string]int
	// Capped holds the MaxFraction=0.1 Mobile SoC run (MAE and speedup).
	CappedMAE       float64
	CappedSpeedup   float64
	CappedRefLoaded bool
	// CappedErr records the capped variant's failure ("" on success).
	CappedErr string
	// Failed maps a config name to its prediction's failure; failed
	// configs have no Errors/MAE/Speedup entries and render as ERR.
	Failed map[string]string
	// Degraded maps a config name to the number of groups its prediction
	// lost (present only when > 0).
	Degraded map[string]int
	// Pool is the prediction grid's worker-pool accounting.
	Pool PoolStats
	// Faults tallies failed and degraded predictions for the legend.
	Faults FaultTally
	// work and cappedWork are the simulated-work ratios (see outcome.work)
	// behind Speedup and CappedSpeedup.
	work       map[string]float64
	cappedWork float64
}

// Fig10 runs the fully optimized Zatel (fine-grained division, Eq. 1
// budget, uniform distribution, linear extrapolation) on PARK for both
// Table II configurations.
func Fig10(s Settings) (*Fig10Result, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	out := &Fig10Result{
		Settings:  s,
		Errors:    map[string]map[metrics.Metric]float64{},
		MAE:       map[string]float64{},
		Speedup:   map[string]float64{},
		RefLoaded: map[string]bool{},
		K:         map[string]int{},
		Failed:    map[string]string{},
		Degraded:  map[string]int{},
		work:      map[string]float64{},
	}
	// Three predictions — both configs plus the 10%-capped Mobile SoC
	// variant — fan out on the worker pool after their references (the
	// speedup rows show wall time).
	cfgs := Configs()
	var points []core.Options
	for _, cfg := range cfgs {
		points = append(points, s.baseOptions(cfg, "PARK"))
	}
	capped := s.baseOptions(cfgs[0], "PARK")
	capped.MaxFraction = 0.1 // the drastically-reduced variant: at most 10% of each group
	points = append(points, capped)
	refs, err := s.warm(points)
	if err != nil {
		return nil, err
	}
	last := len(points) - 1
	outs, pool, faults := s.runGrid(points, refs, func(i int) string {
		return fmt.Sprintf("fig10 %s capped=%v", points[i].Config.Name, i == last)
	})
	out.Pool, out.Faults = pool, faults
	for i, cfg := range cfgs {
		o := outs[i]
		if o.err != nil {
			out.Failed[cfg.Name] = o.err.Error()
			continue
		}
		if n := o.degraded(); n > 0 {
			out.Degraded[cfg.Name] = n
		}
		out.Errors[cfg.Name] = o.res.Errors(o.ref)
		out.MAE[cfg.Name] = metrics.MAE(out.Errors[cfg.Name], metrics.All())
		out.Speedup[cfg.Name] = o.res.Speedup(o.ref)
		out.RefLoaded[cfg.Name] = o.refLoaded
		out.K[cfg.Name] = o.res.K
		out.work[cfg.Name] = o.work()
	}
	if o := outs[last]; o.err != nil {
		out.CappedErr = o.err.Error()
	} else {
		out.CappedMAE = metrics.MAE(o.res.Errors(o.ref), metrics.All())
		out.CappedSpeedup = o.res.Speedup(o.ref)
		out.CappedRefLoaded = o.refLoaded
		out.cappedWork = o.work()
	}
	return out, nil
}

// Render prints the figure as a table: one row per metric, one column per
// configuration.
func (r *Fig10Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig. 10 — absolute error per metric, fully optimized Zatel on PARK (%dx%d, %d spp)\n",
		r.Settings.Width, r.Settings.Height, r.Settings.SPP)
	hr(w, 72)
	names := make([]string, 0, len(r.Errors)+len(r.Failed))
	for name := range r.Errors {
		names = append(names, name)
	}
	for name := range r.Failed {
		names = append(names, name)
	}
	sort.Strings(names)
	row := func(label string, value func(n string) string) {
		fmt.Fprintf(w, "%-22s", label)
		for _, n := range names {
			_, failed := r.Failed[n]
			fmt.Fprintf(w, "%16s", faultCell(failed, r.Degraded[n], value(n)))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-22s", "Metric")
	for _, n := range names {
		fmt.Fprintf(w, "%16s", n)
	}
	fmt.Fprintln(w)
	for _, m := range metrics.All() {
		row(m.String(), func(n string) string { return pct(r.Errors[n][m]) })
	}
	hr(w, 72)
	row("MAE", func(n string) string { return pct(r.MAE[n]) })
	row("Speedup", func(n string) string { return loadedCell(r.RefLoaded[n], fmt.Sprintf("%.1fx", r.Speedup[n])) })
	row("K", func(n string) string { return fmt.Sprintf("%d", r.K[n]) })
	if r.CappedErr != "" {
		fmt.Fprintf(w, "MobileSoC capped at 10%% pixels: ERR (%s)\n", r.CappedErr)
	} else {
		fmt.Fprintf(w, "MobileSoC capped at 10%% pixels: MAE %s, speedup %s\n",
			pct(r.CappedMAE), loadedCell(r.CappedRefLoaded, fmt.Sprintf("%.1fx", r.CappedSpeedup)))
	}
	r.Pool.Render(w)
	r.Pool.renderLoaded(w)
	r.Faults.Render(w)
	fmt.Fprintf(w, "(paper: MAE 4.5%% SoC / 15.1%% RTX, ~10x speedup; 50x at 10%% cap with 5.2%% MAE)\n")
}
