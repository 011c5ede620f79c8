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
// freed at the next GC even while its simulator stays pooled. The trace,
// ops and traversal-step arrays each carry a finalizer that must run.
func TestPooledSimPinsNoTrace(t *testing.T) {
	s, err := scene.ByName("SPRNG")
	if err != nil {
		t.Fatal(err)
	}
	wl, err := rt.BuildWorkload(s, 32, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Compaction lays each array out in pixel order, so the first pixel
	// with steps starts the step array.
	p := 0
	for len(wl.Traces[p].Steps) == 0 {
		p++
	}
	freed := make(chan string, 3)
	runtime.SetFinalizer(&wl.Traces[0], func(*rt.ThreadTrace) { freed <- "traces" })
	runtime.SetFinalizer(&wl.Traces[0].Ops[0], func(*rt.Op) { freed <- "ops" })
	runtime.SetFinalizer(&wl.Traces[p].Steps[0], func(*uint16) { freed <- "steps" })

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
	for n := 0; n < 3; n++ {
		select {
		case <-freed:
		case <-deadline:
			t.Fatalf("pooled simulator pins the workload: %d of 3 arrays freed", n)
		}
	}
	runtime.KeepAlive(sim)
}
