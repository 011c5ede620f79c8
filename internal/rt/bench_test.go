package rt

import (
	"testing"

	"zatel/internal/scene"
)

// BenchmarkBuildWorkload measures step 1 end to end — BVH build, path
// tracing with traversal-step recording, and arena compaction — for PARK at
// 128x128, 1 spp, the frame the GPU benchmarks replay. Beside the
// workload's resident MiB it reports B/pixel, its resident bytes per pixel,
// and B/step, the resident bytes of step words per traversal step (4 would
// be one packed uint32 per step).
func BenchmarkBuildWorkload(b *testing.B) {
	sc, err := scene.ByName("PARK")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var wl *Workload
	for i := 0; i < b.N; i++ {
		if wl, err = BuildWorkload(sc, 128, 128, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var steps uint64
	for i := range wl.Traces {
		n, _ := wl.Traces[i].TraversalWork()
		steps += n
	}
	b.ReportMetric(float64(wl.SizeBytes())/(1<<20), "MiB")
	b.ReportMetric(float64(wl.SizeBytes())/float64(wl.Pixels()), "B/pixel")
	b.ReportMetric(float64(2*cap(wl.Traces[0].a.words))/float64(steps), "B/step")
}
