// Command simrt runs the full cycle-level GPU simulation of a scene — the
// ground-truth baseline Zatel is compared against (what the paper obtains
// from an unmodified Vulkan-Sim run).
//
// Usage:
//
//	simrt -scene PARK -config mobile -res 128 -spp 2
package main

import (
	"flag"
	"fmt"

	"zatel/internal/cli"
	"zatel/internal/config"
	"zatel/internal/core"
	"zatel/internal/metrics"
)

func main() {
	frame := cli.FrameFlags(flag.CommandLine, cli.Frame{Scene: "PARK", Config: "mobile", Res: 128, SPP: 2})
	app := cli.New(flag.CommandLine, "simrt")
	flag.Parse()

	// SIGINT/SIGTERM cancel the workload build (between rows) and abort
	// before the cycle-level replay launches; we exit 130 like the other
	// CLIs.
	ctx := app.Start()
	cfg, err := config.ByName(frame.Config)
	if err != nil {
		app.Finish(err)
	}
	rep, err := core.ReferenceContext(ctx, cfg, frame.Scene, frame.Res, frame.Res, frame.SPP)
	if err != nil {
		app.Finish(err)
	}

	fmt.Printf("full simulation: %s on %s (%dx%d, %d spp)\n", frame.Scene, cfg.Name, frame.Res, frame.Res, frame.SPP)
	fmt.Printf("%-22s%16s\n", "Metric", "Value")
	for _, m := range metrics.All() {
		fmt.Printf("%-22s%16.4f\n", m, rep.Value(m))
	}
	fmt.Printf("%-22s%16d\n", "Instructions", rep.Instructions)
	fmt.Printf("%-22s%16d\n", "Warps", rep.Warps)
	fmt.Printf("%-22s%16s\n", "Wall time", rep.WallTime.Round(1e6).String())
}
