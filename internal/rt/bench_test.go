package rt

import (
	"testing"

	"zatel/internal/scene"
)

// BenchmarkBuildWorkload measures step 1 end to end — BVH build, path
// tracing with traversal-step recording, and arena compaction — for PARK at
// 128x128, 1 spp, the frame the GPU benchmarks replay.
func BenchmarkBuildWorkload(b *testing.B) {
	sc, err := scene.ByName("PARK")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wl, err := BuildWorkload(sc, 128, 128, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(wl.SizeBytes())/(1<<20), "MiB")
	}
}
