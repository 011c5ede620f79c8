package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// flaky fails the first failures attempts of every job, then succeeds.
type flaky struct {
	mu       sync.Mutex
	calls    map[int]int
	failures int
}

func newFlaky(failures int) *flaky {
	return &flaky{calls: map[int]int{}, failures: failures}
}

func (f *flaky) run(ctx context.Context, i int) (int, error) {
	f.mu.Lock()
	f.calls[i]++
	n := f.calls[i]
	f.mu.Unlock()
	if n <= f.failures {
		return 0, fmt.Errorf("transient failure %d of job %d", n, i)
	}
	return i * 10, nil
}

func TestMapPolicyRetriesRecover(t *testing.T) {
	f := newFlaky(2)
	rs, err := MapPolicy(context.Background(), 4, Policy{Workers: 2, MaxAttempts: 3}, f.run)
	if err != nil {
		t.Fatalf("retries did not recover: %v", err)
	}
	for i, r := range rs {
		if r.Err != nil || r.Value != i*10 {
			t.Errorf("job %d: value %d err %v", i, r.Value, r.Err)
		}
		if r.Attempts != 3 {
			t.Errorf("job %d took %d attempts, want 3", i, r.Attempts)
		}
	}
}

func TestMapPolicyExhaustsAttempts(t *testing.T) {
	f := newFlaky(5)
	rs, err := MapPolicy(context.Background(), 2, Policy{Workers: 2, MaxAttempts: 3}, f.run)
	if err == nil {
		t.Fatal("exhausted retries reported success")
	}
	var je *JobError
	if !errors.As(err, &je) {
		t.Errorf("aggregate error %v has no JobError", err)
	}
	for i, r := range rs {
		if r.Err == nil {
			t.Errorf("job %d succeeded with only 3 of 6 required attempts", i)
		}
		if r.Attempts != 3 {
			t.Errorf("job %d recorded %d attempts, want 3", i, r.Attempts)
		}
	}
}

func TestMapPolicyZeroValueMatchesMap(t *testing.T) {
	rs, err := MapPolicy(context.Background(), 3, Policy{}, func(ctx context.Context, i int) (int, error) {
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r.Value != i || r.Attempts != 1 {
			t.Errorf("job %d: value %d attempts %d", i, r.Value, r.Attempts)
		}
	}
}

func TestMapPolicyDeadline(t *testing.T) {
	rs, err := MapPolicy(context.Background(), 1,
		Policy{Workers: 1, MaxAttempts: 2, Timeout: 10 * time.Millisecond},
		func(ctx context.Context, i int) (int, error) {
			<-ctx.Done() // hang until the per-attempt deadline fires
			return 0, ctx.Err()
		})
	if err == nil {
		t.Fatal("deadline-exceeding job reported success")
	}
	r := rs[0]
	if !errors.Is(r.Err, context.DeadlineExceeded) {
		t.Errorf("error %v does not wrap DeadlineExceeded", r.Err)
	}
	if r.Attempts != 2 {
		t.Errorf("timed-out job retried %d times, want both attempts used", r.Attempts)
	}
}

func TestMapPolicyDeadlineThenRecovery(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	rs, err := MapPolicy(context.Background(), 1,
		Policy{Workers: 1, MaxAttempts: 2, Timeout: 20 * time.Millisecond},
		func(ctx context.Context, i int) (int, error) {
			mu.Lock()
			calls++
			first := calls == 1
			mu.Unlock()
			if first {
				<-ctx.Done()
				return 0, ctx.Err()
			}
			return 42, nil
		})
	if err != nil {
		t.Fatalf("second attempt should have recovered: %v", err)
	}
	if rs[0].Value != 42 || rs[0].Attempts != 2 {
		t.Errorf("got value %d after %d attempts", rs[0].Value, rs[0].Attempts)
	}
}

func TestBackoffDelayDeterministicAndBounded(t *testing.T) {
	p := Policy{Backoff: 10 * time.Millisecond, MaxBackoff: 100 * time.Millisecond, JitterSeed: 3}
	for attempt := 1; attempt <= 6; attempt++ {
		d1 := p.backoffDelay(2, attempt)
		d2 := p.backoffDelay(2, attempt)
		if d1 != d2 {
			t.Errorf("attempt %d: delay not deterministic (%v vs %v)", attempt, d1, d2)
		}
		base := p.Backoff << uint(attempt-1)
		if base > p.MaxBackoff {
			base = p.MaxBackoff
		}
		if d1 < base || d1 > base+base/2 {
			t.Errorf("attempt %d: delay %v outside [%v, %v]", attempt, d1, base, base+base/2)
		}
	}
	if d := (Policy{}).backoffDelay(0, 1); d != 0 {
		t.Errorf("zero policy delay %v, want 0", d)
	}
	// Different jobs jitter differently (de-synchronised retries).
	pj := Policy{Backoff: time.Second, JitterSeed: 3}
	if pj.backoffDelay(0, 1) == pj.backoffDelay(1, 1) {
		t.Error("jobs 0 and 1 drew identical jitter")
	}
}

func TestCancelDuringBackoffKeepsJobError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	jobErr := errors.New("transient")
	done := make(chan struct{})
	var rs []Result[int]
	var err error
	go func() {
		defer close(done)
		rs, err = MapPolicy(ctx, 1,
			Policy{Workers: 1, MaxAttempts: 3, Backoff: 10 * time.Second},
			func(ctx context.Context, i int) (int, error) {
				cancel() // cancel while the worker is about to back off
				return 0, jobErr
			})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not interrupt the 10s backoff")
	}
	if err == nil {
		t.Fatal("cancelled job reported success")
	}
	if !errors.Is(rs[0].Err, jobErr) {
		t.Errorf("job kept %v, want its real error", rs[0].Err)
	}
	if rs[0].Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (cancelled before retrying)", rs[0].Attempts)
	}
}

func TestMapPolicyPanicsCountAsAttempts(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	rs, err := MapPolicy(context.Background(), 1, Policy{Workers: 1, MaxAttempts: 2},
		func(ctx context.Context, i int) (int, error) {
			mu.Lock()
			calls++
			first := calls == 1
			mu.Unlock()
			if first {
				panic("boom")
			}
			return 7, nil
		})
	if err != nil {
		t.Fatalf("panic was not retried: %v", err)
	}
	if rs[0].Value != 7 || rs[0].Attempts != 2 {
		t.Errorf("value %d after %d attempts", rs[0].Value, rs[0].Attempts)
	}
}
