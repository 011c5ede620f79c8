package bvh

import (
	"testing"

	"zatel/internal/scene"
)

// BenchmarkBuild measures the binned-SAH build over the largest library
// scenes. The builder keeps its bins and sweep arrays in per-builder
// scratch, so allocs/op stay a small constant per forked builder instead of
// growing with the node count.
func BenchmarkBuild(b *testing.B) {
	for _, name := range []string{"PARK", "BUNNY"} {
		s, err := scene.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(s, DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
