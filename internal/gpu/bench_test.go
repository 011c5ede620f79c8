package gpu

import (
	"fmt"
	"math/rand"
	"testing"

	"zatel/internal/config"
	"zatel/internal/metrics"
)

var benchRunReport metrics.Report

// BenchmarkRun times warm pooled runs of PARK 96x96 on two GPUs, each at
// full size (full/) and divided by its Zatel downscale factor (down/). The
// two kinds are separate because a downscaled GPU simulates several times
// more cycles per event than a full one, so the per-cycle loop weighs more
// there and the event heap less: compare full/ and down/ across two
// revisions as two speed-ups, not one. Allocations per warm run are
// reported too; the pooled path makes 3. BenchmarkEventHeap times the event
// heap alone, without the simulator's run-to-run noise.
//
//	go test -run '^$' -bench BenchmarkRun -benchtime 5x ./internal/gpu
func BenchmarkRun(b *testing.B) {
	traces := loadWorkload(b, "PARK", 96, 96, 1)
	for _, full := range []config.Config{config.MobileSoC(), config.RTX2060()} {
		down, err := full.Downscale(config.DownscaleFactor(full))
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			kind string
			cfg  config.Config
		}{{"full", full}, {"down", down}} {
			b.Run(c.kind+"/"+c.cfg.Name, func(b *testing.B) {
				runJob(b, c.cfg, traces) // warm this configuration's pool
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchRunReport = runJob(b, c.cfg, traces)
				}
				b.ReportMetric(float64(benchRunReport.Cycles), "simcycles/op")
			})
		}
	}
}

// BenchmarkEventHeap times one pop and one push of the event heap in steady
// state, on a deterministic synthetic stream shaped like the simulator's
// (PARK 96x96, measured by counting the heap's operations): about 130 live
// events on MobileSoC/4 and 320 on RTX2060/6, and each pushed event lands a
// memory or pipeline latency after the popped one, so most pops tie with
// the next.
//
//	go test -run '^$' -bench BenchmarkEventHeap -count 10 ./internal/gpu
func BenchmarkEventHeap(b *testing.B) {
	offsets := eventOffsets(1 << 16)
	mask := len(offsets) - 1
	for _, live := range []int{130, 320} {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			var h eventHeap
			for i := 0; i < live; i++ {
				h.push(event{cycle: offsets[i], word: uint64(i)})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := h.pop()
				h.push(event{cycle: e.cycle + offsets[i&mask], word: e.word})
			}
		})
	}
}

// eventOffsets draws n push offsets (n a power of two) in the measured
// shares: about 12 % a pipeline latency of 4 to 20 cycles, 75 % an L1 or
// L2 latency of 21 to 100, and 13 % a DRAM latency of 101 to 400.
func eventOffsets(n int) []uint64 {
	rng := rand.New(rand.NewSource(1))
	offsets := make([]uint64, n)
	for i := range offsets {
		switch p := rng.Intn(100); {
		case p < 12:
			offsets[i] = 4 + uint64(rng.Intn(17))
		case p < 87:
			offsets[i] = 21 + uint64(rng.Intn(80))
		default:
			offsets[i] = 101 + uint64(rng.Intn(300))
		}
	}
	return offsets
}
