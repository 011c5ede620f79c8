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
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"zatel/internal/config"
	"zatel/internal/core"
	"zatel/internal/faults"
	"zatel/internal/metrics"
	"zatel/internal/obs"
	"zatel/internal/sampling"
	"zatel/internal/scene"
	"zatel/internal/store"
)

func main() {
	var (
		sceneName  = flag.String("scene", "PARK", "scene name ("+strings.Join(scene.Names(), ", ")+")")
		cfgName    = flag.String("config", "mobile", "GPU configuration: mobile or rtx2060")
		res        = flag.Int("res", 128, "square frame resolution")
		spp        = flag.Int("spp", 2, "samples per pixel")
		division   = flag.String("division", "fine", "image-plane division: fine or coarse")
		dist       = flag.String("dist", "uniform", "pixel distribution: uniform, lintmp, exptmp, stratified or rankedset")
		sampl      = flag.String("sampling", "", "sampling strategy, an alias for -dist that reads better for the replicated strategies (stratified, rankedset); overrides -dist when set")
		targetCI   = flag.Float64("target-ci", 0, "adaptive sampling: relative CI half-width target, e.g. 0.05 for ±5% (requires stratified or rankedset; 0 = one round)")
		replicates = flag.Int("replicates", 0, "replicate sub-draws per round for stratified/rankedset (0 = default 5)")
		confidence = flag.Float64("confidence", 0, "confidence level for intervals: 0.90, 0.95 or 0.99 (0 = 0.95)")
		maxRounds  = flag.Int("max-rounds", 0, "adaptive re-draw round cap with -target-ci (0 = default 4)")
		percent    = flag.Float64("percent", 0, "fixed traced-pixel fraction in (0,1]; 0 uses Eq. 1")
		maxPercent = flag.Float64("maxpercent", 0, "cap on the Eq. 1 budget (0 = none)")
		k          = flag.Int("k", 0, "downscaling factor override (0 = gcd rule)")
		noDown     = flag.Bool("no-downscale", false, "disable GPU downscaling (K=1)")
		regression = flag.Bool("regression", false, "use exponential-regression extrapolation (20/30/40% runs)")
		compare    = flag.Bool("compare", false, "also run the full simulation and report errors and speedup")
		seed       = flag.Uint64("seed", 1, "selection randomness seed")
		parallel   = flag.Bool("parallel", false, "run the K group instances on the worker pool")
		workers    = flag.Int("workers", 0, "pool size with -parallel (0 = one per CPU core)")
		storeSize  = flag.String("store-size", "0", "artifact store byte budget, e.g. 256MiB (0 = unbounded)")

		attempts   = flag.Int("attempts", 1, "max attempts per group instance (retries on failure)")
		backoff    = flag.Duration("retry-backoff", 0, "base backoff between attempts (doubles, seeded jitter)")
		jobTimeout = flag.Duration("job-timeout", 0, "per-attempt deadline for a group instance (0 = none)")
		quorum     = flag.Int("quorum", 0, "surviving groups needed for a degraded prediction (0 = ceil(K/2), <0 = all)")

		injErrors   = flag.Float64("inject-errors", 0, "fault injection: per-attempt error probability in [0,1]")
		injPanics   = flag.Float64("inject-panics", 0, "fault injection: per-attempt panic probability in [0,1]")
		injStraggle = flag.Float64("inject-straggle", 0, "fault injection: per-attempt straggler probability in [0,1]")
		injMean     = flag.Duration("inject-straggle-mean", 50*time.Millisecond, "fault injection: mean straggler delay")
		injSeed     = flag.Uint64("inject-seed", 1, "fault injection: decision seed")

		traceFile  = flag.String("trace", "", "write a Chrome trace_event JSON of the pipeline to this file (open in chrome://tracing or Perfetto)")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
		logLevel   = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
	)
	flag.Parse()

	if _, err := obs.SetupLogger(os.Stderr, *logLevel, false); err != nil {
		fatal(err)
	}

	// Profiles flush on every exit path, interrupt included, like -trace:
	// fatal() and the interrupt exit below both run stopProfiles.
	var perr error
	stopProfiles, perr = obs.StartProfiles(*cpuProfile, *memProfile)
	if perr != nil {
		fatal(perr)
	}
	defer stopProfiles()

	// The workload trace, quantized heatmap and any repeat predictions all
	// flow through the process-wide artifact store; -store-size bounds it.
	budget, err := store.ParseSize(*storeSize)
	if err != nil {
		fatal(err)
	}
	store.Default().SetMaxBytes(budget)

	cfg, err := configByName(*cfgName)
	if err != nil {
		fatal(err)
	}
	opts := core.Options{
		Config: cfg,
		Scene:  *sceneName,
		Width:  *res, Height: *res, SPP: *spp,
		K:                 *k,
		NoDownscale:       *noDown,
		FixedFraction:     *percent,
		MaxFraction:       *maxPercent,
		Regression:        *regression,
		Seed:              *seed,
		Parallel:          *parallel,
		Workers:           *workers,
		TargetCIHalfWidth: *targetCI,
		Sampling: core.SamplingOptions{
			Replicates: *replicates,
			Confidence: *confidence,
			MaxRounds:  *maxRounds,
		},
		FT: core.FaultTolerance{
			Attempts: *attempts,
			Backoff:  *backoff,
			Timeout:  *jobTimeout,
			Quorum:   *quorum,
			Inject: faults.Config{
				ErrorRate:     *injErrors,
				PanicRate:     *injPanics,
				StragglerRate: *injStraggle,
				StragglerMean: *injMean,
				Seed:          *injSeed,
			},
		},
	}
	switch strings.ToLower(*division) {
	case "fine":
		opts.Division = core.FineGrained
	case "coarse":
		opts.Division = core.CoarseGrained
	default:
		fatal(fmt.Errorf("unknown division %q", *division))
	}
	distName := *dist
	if *sampl != "" {
		distName = *sampl
	}
	opts.Dist, err = sampling.ParseDistribution(strings.ToLower(distName))
	if err != nil {
		fatal(err)
	}

	// SIGINT/SIGTERM cancel the prediction: the pool drains its running
	// jobs, unstarted groups are skipped, and we exit 130.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// -trace attaches a tracer to the context; every pipeline step, group
	// job and retry attempt below records a span into it.
	var tracer *obs.Tracer
	if *traceFile != "" {
		tracer = obs.NewTracer()
		tracer.SetMeta("cmd", "zatel")
		tracer.SetMeta("scene", *sceneName)
		tracer.SetMeta("config", cfg.Name)
		ctx = obs.WithTracer(ctx, tracer)
	}

	predictStart := time.Now()
	result, err := core.PredictContext(ctx, opts)
	measured := time.Since(predictStart)
	if tracer != nil {
		if werr := writeTrace(*traceFile, tracer); werr != nil {
			fatal(werr)
		}
		slog.Info("trace written", "file", *traceFile, "spans", len(tracer.Snapshot()))
	}
	if err != nil {
		if ctx.Err() != nil || errors.Is(err, context.Canceled) {
			stopProfiles()
			fmt.Fprintln(os.Stderr, "zatel: interrupted")
			os.Exit(130)
		}
		fatal(err)
	}

	fmt.Printf("zatel: %s on %s (%dx%d, %d spp), K=%d, %s division, %s distribution\n",
		*sceneName, cfg.Name, *res, *res, *spp, result.K, opts.Division, opts.Dist)
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
			if *targetCI > 0 {
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
			printIntervals(result, *confidence)
			return
		}
		fmt.Printf("%-22s%16s\n", "Metric", "Predicted")
		for _, m := range metrics.All() {
			fmt.Printf("%-22s%16.4f\n", m, result.Predicted[m])
		}
		return
	}

	ref, err := core.Reference(cfg, *sceneName, *res, *res, *spp)
	if err != nil {
		fatal(err)
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
		printIntervals(result, *confidence)
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

// writeTrace exports the tracer's spans as Chrome trace_event JSON.
func writeTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func configByName(name string) (config.Config, error) {
	switch strings.ToLower(name) {
	case "mobile", "mobilesoc", "soc":
		return config.MobileSoC(), nil
	case "rtx2060", "rtx", "turing":
		return config.RTX2060(), nil
	default:
		return config.Config{}, fmt.Errorf("unknown config %q (want mobile or rtx2060)", name)
	}
}

// stopProfiles flushes the -cpuprofile/-memprofile outputs; fatal and the
// interrupt exit call it (idempotently) so profiles survive any exit.
var stopProfiles = func() {}

func fatal(err error) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, "zatel:", err)
	os.Exit(1)
}
