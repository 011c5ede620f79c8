// Command zatel runs the Zatel prediction pipeline on a scene and, with
// -compare, evaluates it against the ground-truth full simulation.
//
// Usage:
//
//	zatel -scene PARK -config mobile -res 128 -spp 2 -compare
//	zatel -scene PARK -maxpercent 0.1           # the paper's 50x variant
//	zatel -scene BATH -division coarse -dist exptmp -percent 0.4
//	zatel -scene PARK -inject-errors 0.3 -attempts 3   # fault-injection soak
//	zatel -scene PARK -trace trace.json                # step-level span trace
package main

import (
	"flag"
	"fmt"
	"time"

	"zatel/internal/cli"
	"zatel/internal/config"
	"zatel/internal/core"
	"zatel/internal/metrics"
)

func main() {
	fs := flag.CommandLine
	frame := cli.FrameFlags(fs, cli.Frame{Scene: "PARK", Config: "mobile", Res: 128, SPP: 2})
	smp := cli.SamplingFlags(fs)
	ft := cli.FaultFlags(fs)
	app := cli.New(fs, "zatel")
	app.StoreFlag("0")
	app.ProfileFlags()
	var (
		division   = fs.String("division", "fine", "image-plane division: fine or coarse")
		percent    = fs.Float64("percent", 0, "fixed traced-pixel fraction in (0,1]; 0 uses Eq. 1")
		maxPercent = fs.Float64("maxpercent", 0, "cap on the Eq. 1 budget (0 = none)")
		k          = fs.Int("k", 0, "downscaling factor override (0 = gcd rule)")
		noDown     = fs.Bool("no-downscale", false, "disable GPU downscaling (K=1)")
		regression = fs.Bool("regression", false, "use exponential-regression extrapolation (20/30/40% runs)")
		compare    = fs.Bool("compare", false, "also run the full simulation and report errors and speedup")
		seed       = fs.Uint64("seed", 1, "selection randomness seed")
		parallel   = fs.Bool("parallel", false, "run the K group instances on the worker pool")
		workers    = fs.Int("workers", 0, "pool size with -parallel (0 = one per CPU core)")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel the prediction: the pool drains its running
	// jobs, unstarted groups are skipped, and we exit 130. With -trace,
	// every pipeline step, group job and retry attempt records a span.
	ctx := app.Start()
	defer app.Finish(nil)

	cfg, err := config.ByName(frame.Config)
	if err != nil {
		app.Finish(err)
	}
	opts := core.Options{
		Config: cfg,
		Scene:  frame.Scene,
		Width:  frame.Res, Height: frame.Res, SPP: frame.SPP,
		K:                 *k,
		NoDownscale:       *noDown,
		FixedFraction:     *percent,
		MaxFraction:       *maxPercent,
		Regression:        *regression,
		Seed:              *seed,
		Parallel:          *parallel,
		Workers:           *workers,
		TargetCIHalfWidth: smp.TargetCI,
		Sampling:          smp.Options,
		FT:                *ft,
	}
	if opts.Division, err = core.ParseDivision(*division); err != nil {
		app.Finish(err)
	}
	if opts.Dist, err = smp.Dist(); err != nil {
		app.Finish(err)
	}
	app.Tracer.SetMeta("scene", frame.Scene)
	app.Tracer.SetMeta("config", cfg.Name)

	predictStart := time.Now()
	result, err := core.PredictContext(ctx, opts)
	measured := time.Since(predictStart)
	if err != nil {
		app.Finish(err)
	}

	fmt.Printf("zatel: %s on %s (%dx%d, %d spp), K=%d, %s division, %s distribution\n",
		frame.Scene, cfg.Name, frame.Res, frame.Res, frame.SPP, result.K, opts.Division, opts.Dist)
	for gi, g := range result.Groups {
		if g.Err != nil {
			fmt.Printf("  group %d: FAILED after %d attempt(s): %v\n", gi, g.Attempts, g.Err)
			continue
		}
		retries := ""
		if g.Attempts > 1 {
			retries = fmt.Sprintf(", %d attempts", g.Attempts)
		}
		reps := ""
		if g.Rounds > 0 {
			met := ""
			if smp.TargetCI > 0 {
				met = ", target met"
				if !g.TargetMet {
					met = ", target unmet"
				}
			}
			reps = fmt.Sprintf(", %d replicates x %d round(s)%s", g.Replicates, g.Rounds, met)
		}
		fmt.Printf("  group %d: %d/%d pixels traced (%.1f%%), %d cycles, %s (queued %s%s%s)\n",
			gi, g.Selected, g.Pixels, 100*g.Fraction, g.Report.Cycles,
			g.WallTime.Round(1e6), g.QueueTime.Round(1e6), retries, reps)
	}
	if d := result.Degraded; d != nil {
		fmt.Printf("  %s\n", d)
	}
	// Two different times. Measured is what this process took for the whole
	// prediction. Modeled is the paper's accounting, one core per group:
	// preprocessing plus the slowest instance, whatever this host overlapped.
	modeled := result.PreprocessTime + result.SimWallTime
	fmt.Printf("measured wall %s (this run, whole prediction)\n", measured.Round(1e6))
	fmt.Printf("modeled concurrent %s = preprocess %s + simulation %s (slowest instance); cpu %s (all instances)\n\n",
		modeled.Round(1e6), result.PreprocessTime.Round(1e6), result.SimWallTime.Round(1e6),
		result.TotalCPUTime.Round(1e6))

	if !*compare {
		if result.Intervals != nil {
			printIntervals(result, smp.Options.Confidence)
			return
		}
		fmt.Printf("%-22s%16s\n", "Metric", "Predicted")
		for _, m := range metrics.All() {
			fmt.Printf("%-22s%16.4f\n", m, result.Predicted[m])
		}
		return
	}

	ref, err := core.ReferenceContext(ctx, cfg, frame.Scene, frame.Res, frame.Res, frame.SPP)
	if err != nil {
		app.Finish(err)
	}
	errs := result.Errors(ref)
	fmt.Printf("%-22s%16s%16s%12s\n", "Metric", "Predicted", "FullSim", "AbsErr")
	for _, m := range metrics.All() {
		fmt.Printf("%-22s%16.4f%16.4f%11.1f%%\n", m, result.Predicted[m], ref.Value(m), 100*errs[m])
	}
	if result.Degraded != nil {
		fmt.Printf("(errors measured against a degraded prediction: %s)\n", result.Degraded)
	}
	if result.Intervals != nil {
		fmt.Println()
		printIntervals(result, smp.Options.Confidence)
	}
	fmt.Printf("\nMAE %.1f%%   full sim %s: speedup %.1fx modeled concurrent (zatel %s), %.1fx measured wall (zatel %s)\n",
		100*metrics.MAE(errs, metrics.All()), ref.WallTime.Round(1e6),
		result.Speedup(ref), modeled.Round(1e6),
		float64(ref.WallTime)/float64(measured), measured.Round(1e6))
}

// printIntervals renders the replicated strategies' confidence intervals:
// the point prediction with its CI bounds and ± half-width per metric.
func printIntervals(result *core.Result, confFlag float64) {
	conf := confFlag
	if conf == 0 {
		conf = 0.95
	}
	reps := 0
	for _, iv := range result.Intervals {
		if reps == 0 || iv.Replicates < reps {
			reps = iv.Replicates
		}
	}
	fmt.Printf("%-22s%16s%16s%16s%12s\n", "Metric", "Predicted", "CI low", "CI high", "±half")
	for _, m := range metrics.All() {
		iv := result.Intervals[m]
		fmt.Printf("%-22s%16.4f%16.4f%16.4f%12.4f\n",
			m, result.Predicted[m], iv.Low, iv.High, iv.HalfWidth())
	}
	fmt.Printf("(%.0f%% confidence from %d replicate sub-draws per group)\n", 100*conf, reps)
}
