package cluster_test

import (
	"testing"
	"time"

	"zatel/internal/config"
	"zatel/internal/gpu"
	"zatel/internal/heatmap"
	"zatel/internal/metrics"
	"zatel/internal/rt"
	"zatel/internal/scene"
	"zatel/internal/store"
)

// FuzzDecodeFramed feeds arbitrary bytes to the one verification every peer
// response and disk entry passes. Seeds are a valid frame of each artifact
// kind. Whatever the input, DecodeFramed must not panic, and a frame it
// accepts must decode to a value that frames again and decodes to the same
// kind: no kind has a decode path that yields a value its own codec cannot
// carry. An accepted workload must also replay through the simulator
// without panicking: the decoder, not gpu.Run, rejects traces that do not
// hold together.
func FuzzDecodeFramed(f *testing.F) {
	s, err := scene.ByName("SPRNG")
	if err != nil {
		f.Fatal(err)
	}
	soc, err := config.MobileSoC().Downscale(4)
	if err != nil {
		f.Fatal(err)
	}
	w, err := rt.BuildWorkload(s, 4, 4, 1)
	if err != nil {
		f.Fatal(err)
	}
	for _, v := range []any{
		w,
		&heatmap.Quantized{Width: 2, Height: 1, Levels: []float64{1, 2}, Index: []int{0, 1}},
		testPrediction(),
		metrics.Report{Cycles: 1000, Instructions: 2500, DRAMBWUtil: 0.4, WallTime: time.Second},
	} {
		data, _, err := store.EncodeFramed(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, _, kind, err := store.DecodeFramed(data)
		if err != nil {
			return
		}
		again, kind2, err := store.EncodeFramed(v)
		if err != nil || kind2 != kind {
			t.Fatalf("accepted %s frame re-encodes as %q: %v", kind, kind2, err)
		}
		if _, _, kind3, err := store.DecodeFramed(again); err != nil || kind3 != kind {
			t.Fatalf("re-encoded %s frame decodes as %q: %v", kind, kind3, err)
		}
		if w, ok := v.(*rt.Workload); ok {
			// A run may fail (a frame can exceed the event limits); it
			// must not panic.
			_, _ = gpu.Run(gpu.Job{Cfg: soc, Traces: w.Traces})
		}
	})
}
