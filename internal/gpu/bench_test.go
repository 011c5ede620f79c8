package gpu

import (
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
// reported too; the pooled path makes 3.
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
