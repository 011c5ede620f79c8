// Command sweep regenerates the paper's evaluation tables and figures.
// Each subcommand reproduces one experiment and prints the corresponding
// rows/series; "all" runs the full evaluation in order.
//
// Usage:
//
//	sweep [-res 256] [-spp 1] [-config rtx2060] [-reps 5] [-trace grid.json]
//	      [-cpuprofile cpu.pprof] [-memprofile mem.pprof] <experiment>
//
// Experiments: fig10 fig11 table3 fig13 fig14 fig15 fig16 fig17 fig18
// fig19 fig20 all
//
// Fault-injection flags (-inject-*) soak the experiment grids: failed
// cells render as ERR, degraded predictions are marked †, and SIGINT
// prints the partial tables before exiting 130.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"zatel/internal/cli"
	"zatel/internal/config"
	"zatel/internal/experiments"
	"zatel/internal/scene"
)

func main() {
	fs := flag.CommandLine
	frame := cli.FrameFlags(fs, cli.Frame{Config: "rtx2060", Res: 256, SPP: 1})
	smp := cli.SamplingFlags(fs)
	ft := cli.FaultFlags(fs)
	app := cli.New(fs, "sweep")
	app.StoreFlag("0")
	app.ProfileFlags()
	reps := fs.Int("reps", 5, "random-selection repetitions for table3")
	workers := fs.Int("workers", 0, "experiment-grid worker pool size (0 = one per CPU core, 1 = serial)")
	flag.Parse()
	if flag.NArg() != 1 {
		usage()
	}

	// SIGINT/SIGTERM cancel the grids; already-collected cells still render
	// (cancelled ones as ERR) before we exit 130. With -trace, every grid
	// point records a "point[i]" span with the pipeline step spans below.
	ctx := app.Start()
	defer app.Finish(nil)
	app.Tracer.SetMeta("experiment", flag.Arg(0))

	cfg, err := config.ByName(frame.Config)
	if err != nil {
		app.Finish(err)
	}
	settings := experiments.Settings{
		Width: frame.Res, Height: frame.Res, SPP: frame.SPP, Workers: *workers,
		Ctx:      ctx,
		FT:       *ft,
		Sampling: smp.Options,
		TargetCI: smp.TargetCI,
	}
	if settings.Dist, err = smp.Dist(); err != nil {
		app.Finish(err)
	}

	names := []string{strings.ToLower(flag.Arg(0))}
	if names[0] == "all" {
		names = []string{"fig10", "fig11", "table3", "fig13", "fig14",
			"fig15", "fig16", "fig17", "fig18", "fig19", "fig20"}
	}
	for _, name := range names {
		if err := runExperiment(name, settings, cfg, *reps); err != nil {
			app.Finish(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Println()
		if ctx.Err() != nil {
			app.Finish(ctx.Err())
		}
	}
}

// sweepCache shares one percentage sweep across fig13–fig16.
var sweepCache *experiments.SweepResult

// downscaleCache shares the K sweeps across fig17–fig19 (Fig. 17 uses the
// representative subset, Figs. 18/19 all scenes).
var (
	downscaleRepr *experiments.DownscaleResult
	downscaleAll  *experiments.DownscaleResult
)

func runExperiment(name string, s experiments.Settings, cfg config.Config, reps int) error {
	out := os.Stdout
	switch name {
	case "fig10":
		r, err := experiments.Fig10(s)
		if err != nil {
			return err
		}
		r.Render(out)
	case "fig11":
		r, err := experiments.Fig11(s)
		if err != nil {
			return err
		}
		r.Render(out)
	case "table3":
		r, err := experiments.Table3(s, cfg, reps)
		if err != nil {
			return err
		}
		r.Render(out)
	case "fig13", "fig14", "fig15", "fig16":
		if sweepCache == nil {
			r, err := experiments.PercentSweep(s, cfg, nil)
			if err != nil {
				return err
			}
			sweepCache = r
		}
		switch name {
		case "fig13":
			sweepCache.RenderFig13(out)
		case "fig14":
			sweepCache.RenderFig14(out)
		case "fig15":
			sweepCache.RenderFig15(out)
		case "fig16":
			sweepCache.RenderFig16(out)
		}
	case "fig17":
		if downscaleRepr == nil {
			r, err := experiments.DownscaleSweep(s, cfg, scene.RepresentativeSubset())
			if err != nil {
				return err
			}
			downscaleRepr = r
		}
		downscaleRepr.RenderErrors(out, "Fig. 17 (representative subset)")
	case "fig18", "fig19":
		if downscaleAll == nil {
			r, err := experiments.DownscaleSweep(s, cfg, scene.Names())
			if err != nil {
				return err
			}
			downscaleAll = r
		}
		if name == "fig18" {
			downscaleAll.RenderErrors(out, "Fig. 18 (all scenes)")
		} else {
			downscaleAll.RenderSpeedup(out)
		}
	case "fig20":
		r, err := experiments.Fig20(s, cfg, nil)
		if err != nil {
			return err
		}
		r.Render(out)
	default:
		usage()
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: sweep [flags] <fig10|fig11|table3|fig13|fig14|fig15|fig16|fig17|fig18|fig19|fig20|all>")
	flag.PrintDefaults()
	os.Exit(2)
}
