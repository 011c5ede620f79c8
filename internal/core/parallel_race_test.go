package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"zatel/internal/metrics"
	"zatel/internal/rt"
)

// TestPredictParallelConcurrentWithWarmup drives the concurrency paths the
// runner rewiring touches, under -race: several Predict calls with
// Parallel groups race against CachedWorkloadContext warm-ups for the same frame
// from other goroutines. Every prediction must succeed and agree.
func TestPredictParallelConcurrentWithWarmup(t *testing.T) {
	const w, h = 48, 48
	opts := small("CHSNT")
	opts.Width, opts.Height = w, h
	opts.Parallel = true
	opts.Workers = 4

	const predictors, warmers = 4, 4
	var wg sync.WaitGroup
	preds := make([]*Result, predictors)
	errs := make([]error, predictors+warmers)
	start := make(chan struct{})
	for i := 0; i < predictors; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			preds[i], errs[i] = Predict(opts)
		}(i)
	}
	for i := 0; i < warmers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, errs[predictors+i] = rt.CachedWorkloadContext(context.Background(), "CHSNT", w, h, 1)
		}(i)
	}
	close(start)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	for i := 1; i < predictors; i++ {
		for _, m := range metrics.All() {
			if preds[i].Predicted[m] != preds[0].Predicted[m] {
				t.Errorf("predictor %d: %s differs under concurrency", i, m)
			}
		}
	}
}

func TestPredictContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := small("SPRNG")
	opts.Parallel = true
	if _, err := PredictContext(ctx, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context gave %v", err)
	}
}

func TestPredictValidatesBeforeWorkloadBuild(t *testing.T) {
	// An invalid enum must be rejected up front — even when the scene does
	// not exist, proving no workload build was attempted first.
	opts := small("NO-SUCH-SCENE")
	opts.Division = Division(9)
	if _, err := Predict(opts); err == nil || err.Error() != "core: unknown division 9" {
		t.Errorf("division validation: %v", err)
	}
	opts = small("NO-SUCH-SCENE")
	opts.Dist = 77
	if _, err := Predict(opts); err == nil || err.Error() != "core: unknown distribution 77" {
		t.Errorf("distribution validation: %v", err)
	}
	opts = small("PARK")
	opts.MaxFraction = 1.2
	if _, err := Predict(opts); err == nil {
		t.Error("MaxFraction 1.2 accepted")
	}
	opts = small("PARK")
	opts.K = -1
	if _, err := Predict(opts); err == nil {
		t.Error("negative K accepted")
	}
}
