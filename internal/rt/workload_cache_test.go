package rt

import (
	"context"
	"errors"
	"sync"
	"testing"

	"zatel/internal/scene"
)

// TestCachedWorkloadSingleflight proves that under 8-way concurrency at
// most one BuildWorkload executes per workload key: everyone else waits on
// the in-flight build and shares its result.
func TestCachedWorkloadSingleflight(t *testing.T) {
	// Unusual dimensions so no other test shares this cache key.
	const w, h, spp = 37, 23, 1
	before := buildCount.Load()

	const callers = 8
	var wg sync.WaitGroup
	got := make([]*Workload, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], errs[i] = CachedWorkloadContext(context.Background(), "SPRNG", w, h, spp)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if got[i] == nil || got[i] != got[0] {
			t.Errorf("caller %d got a different workload pointer", i)
		}
	}
	if builds := buildCount.Load() - before; builds != 1 {
		t.Errorf("%d builds executed under concurrency, want exactly 1", builds)
	}

	// A later call hits the memoised value without building again.
	again, err := CachedWorkloadContext(context.Background(), "SPRNG", w, h, spp)
	if err != nil || again != got[0] {
		t.Errorf("warm call: %v, same pointer %v", err, again == got[0])
	}
	if builds := buildCount.Load() - before; builds != 1 {
		t.Errorf("warm call rebuilt: %d builds total", builds)
	}
}

// TestCachedWorkloadContextCancelled: a pre-cancelled context aborts the
// build with the context's error before any BVH is built, and the failure is not cached — a later
// call with a live context builds normally.
func TestCachedWorkloadContextCancelled(t *testing.T) {
	const w, h, spp = 31, 29, 1 // unique dims: no other test shares this key
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CachedWorkloadContext(ctx, "SPRNG", w, h, spp); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build: err = %v, want context.Canceled", err)
	}
	// Uncached too: the scene has no triangles, so reaching bvh.Build or
	// validation would report that instead of the cancellation.
	if _, err := BuildWorkloadContext(ctx, &scene.Scene{Name: "empty"}, w, h, spp); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled uncached build: err = %v, want context.Canceled", err)
	}
	wl, err := CachedWorkloadContext(context.Background(), "SPRNG", w, h, spp)
	if err != nil || wl == nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
	if wl.SizeBytes() <= 0 {
		t.Errorf("SizeBytes() = %d, want positive", wl.SizeBytes())
	}
}

// TestCachedWorkloadErrorNotCached checks that a failed build is retried
// (and keeps failing) instead of poisoning the cache.
func TestCachedWorkloadErrorNotCached(t *testing.T) {
	for i := 0; i < 2; i++ {
		if _, err := CachedWorkloadContext(context.Background(), "NO-SUCH-SCENE", 8, 8, 1); err == nil {
			t.Fatalf("call %d: unknown scene accepted", i)
		}
	}
	if _, err := CachedWorkloadContext(context.Background(), "SPRNG", 0, 8, 1); err == nil {
		t.Fatal("invalid dimensions accepted")
	}
}
