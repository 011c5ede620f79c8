// Command heatmap renders a scene's execution-time heatmap (and optionally
// its K-means-quantized version) as a PPM image — steps 1 and 2 of the
// Zatel pipeline, corresponding to the paper's Fig. 4/9 visualisations.
//
// Usage:
//
//	heatmap -scene BUNNY -res 256 -o bunny.ppm
//	heatmap -scene PARK -quantize 8 -o park_quant.ppm
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"zatel/internal/cli"
	"zatel/internal/heatmap"
	"zatel/internal/partition"
	"zatel/internal/rt"
	"zatel/internal/sampling"
	"zatel/internal/vecmath"
)

func main() {
	fs := flag.CommandLine
	frame := cli.FrameFlags(fs, cli.Frame{Scene: "PARK", Res: 128, SPP: 1})
	app := cli.New(fs, "heatmap")
	var (
		quantize  = fs.Int("quantize", 0, "K-means palette size (0 = raw heatmap)")
		selectPct = fs.Float64("select", 0, "if >0, render the representative-pixel subset (Fig. 8): selected pixels keep their colour, the rest darken")
		dist      = fs.String("dist", "uniform", "distribution for -select: uniform, lintmp or exptmp")
		outPath   = fs.String("o", "", "output PPM path (default <scene>.ppm)")
		seed      = fs.Uint64("seed", 1, "quantization seed")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel the path trace between rows; no partial image
	// is written and we exit 130 like the other CLIs.
	ctx := app.Start()
	wl, err := rt.CachedWorkloadContext(ctx, frame.Scene, frame.Res, frame.Res, frame.SPP)
	if err != nil {
		app.Finish(err)
	}
	hm, err := heatmap.FromCost(wl.Cost, wl.Width, wl.Height)
	if err != nil {
		app.Finish(err)
	}

	path := *outPath
	if path == "" {
		path = strings.ToLower(frame.Scene) + ".ppm"
	}
	f, err := os.Create(path)
	if err != nil {
		app.Finish(err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)

	switch {
	case *selectPct > 0:
		levels := *quantize
		if levels == 0 {
			levels = 8
		}
		q, err := hm.Quantize(levels, *seed)
		if err != nil {
			app.Finish(err)
		}
		d, err := sampling.ParseDistribution(strings.ToLower(*dist))
		if err == nil && d.Replicated() {
			err = fmt.Errorf("-dist %s draws replicates; -select renders one selection (want uniform, lintmp or exptmp)", d)
		}
		if err != nil {
			app.Finish(err)
		}
		groups, err := partition.Coarse(wl.Width, wl.Height, 1, 32, 2)
		if err != nil {
			app.Finish(err)
		}
		sel, err := sampling.Select(q, &groups[0], *selectPct, d, vecmath.NewRNG(*seed))
		if err != nil {
			app.Finish(err)
		}
		if err := writeSelectionPPM(w, q, sel); err != nil {
			app.Finish(err)
		}
		fmt.Printf("wrote selection overlay (%d/%d pixels, %s) to %s\n",
			len(sel.Pixels), wl.Pixels(), d, path)
	case *quantize > 0:
		q, err := hm.Quantize(*quantize, *seed)
		if err != nil {
			app.Finish(err)
		}
		if err := q.WritePPM(w); err != nil {
			app.Finish(err)
		}
		fmt.Printf("wrote quantized heatmap (%d levels) to %s\n", len(q.Levels), path)
	default:
		if err := hm.WritePPM(w); err != nil {
			app.Finish(err)
		}
		fmt.Printf("wrote heatmap to %s\n", path)
	}
	if err := w.Flush(); err != nil {
		app.Finish(err)
	}
}

// writeSelectionPPM renders the quantized heatmap with unselected pixels
// darkened to 1/5 brightness — the Fig. 8 representative-subset view.
func writeSelectionPPM(w *bufio.Writer, q *heatmap.Quantized, sel sampling.Selection) error {
	keep := make(map[int32]bool, len(sel.Pixels))
	for _, p := range sel.Pixels {
		keep[p] = true
	}
	if _, err := fmt.Fprintf(w, "P6\n%d %d\n255\n", q.Width, q.Height); err != nil {
		return err
	}
	for i := 0; i < q.Width*q.Height; i++ {
		r, g, b := heatmap.GradientRGB(q.TempOf(i))
		if !keep[int32(i)] {
			r, g, b = r/5, g/5, b/5
		}
		if err := w.WriteByte(r); err != nil {
			return err
		}
		if err := w.WriteByte(g); err != nil {
			return err
		}
		if err := w.WriteByte(b); err != nil {
			return err
		}
	}
	return nil
}
