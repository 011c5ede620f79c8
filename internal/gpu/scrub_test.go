package gpu

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"zatel/internal/config"
	"zatel/internal/rt"
	"zatel/internal/scene"
)

// TestPooledSimPinsNoTrace: a simulator back in its pool holds no
// reference into the traces it ran, so a workload the store evicts is
// freed at the next GC even while its simulator stays pooled. Finalizers
// on the handle array and on the arena's step-word array must both run.
// The arena itself references its word array, so the words being freed
// proves the arena is not pinned either: neither by a cursor's arena
// pointer nor by a ray's word view.
func TestPooledSimPinsNoTrace(t *testing.T) {
	s, err := scene.ByName("SPRNG")
	if err != nil {
		t.Fatal(err)
	}
	wl, err := rt.BuildWorkload(s, 32, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The arena lays words out in pixel and ray order, so the first ray
	// with words starts the word array.
	var words []uint16
	for p := 0; len(words) == 0; p++ {
		for j := 0; j < wl.Traces[p].NumRays() && len(words) == 0; j++ {
			words = wl.Traces[p].RayWords(j)
		}
	}
	freed := make(chan string, 2)
	runtime.SetFinalizer(&wl.Traces[0], func(*rt.ThreadTrace) { freed <- "traces" })
	runtime.SetFinalizer(&words[0], func(*uint16) { freed <- "arena" })
	words = nil

	cfg := config.MobileSoC()
	cfg.Name = "scrub-test" // a pool of its own
	var sim *Sim
	// The race detector makes sync.Pool drop a share of Puts; run until
	// the simulator is pooled, then hold it so it outlives the GCs below.
	for i := 0; i < 20 && sim == nil; i++ {
		if _, err := Run(Job{Cfg: cfg, Traces: wl.Traces}); err != nil {
			t.Fatal(err)
		}
		if pv, ok := simPools.Load(cfg); ok {
			sim, _ = pv.(*sync.Pool).Get().(*Sim)
		}
	}
	if sim == nil {
		t.Fatal("no simulator reached the pool")
	}
	wl = nil
	runtime.GC()
	runtime.GC()
	deadline := time.After(5 * time.Second)
	for n := 0; n < 2; n++ {
		select {
		case <-freed:
		case <-deadline:
			t.Fatalf("pooled simulator pins the workload: %d of 2 arrays freed", n)
		}
	}
	runtime.KeepAlive(sim)
}
