package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"zatel/internal/obs"
)

// TestMapPolicySpans asserts the pool's trace shape: one "<prefix>[i]" span
// per job carrying the attempts attribute, one nested "attempt" span per
// try, and per-worker lanes.
func TestMapPolicySpans(t *testing.T) {
	tr := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tr)

	flaky := errors.New("transient")
	_, err := MapPolicy(ctx, 3, Policy{
		Workers:     2,
		MaxAttempts: 3,
		SpanPrefix:  "job",
	}, func(_ context.Context, i int) (int, error) {
		if i == 1 {
			return 0, flaky // job 1 burns all 3 attempts
		}
		return i, nil
	})
	if err == nil {
		t.Fatalf("want aggregated error for job 1")
	}

	spans := tr.Snapshot()
	byName := map[string][]obs.SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("job[%d]", i)
		got := byName[name]
		if len(got) != 1 {
			t.Fatalf("got %d %q spans, want 1", len(got), name)
		}
		wantAttempts := "1"
		if i == 1 {
			wantAttempts = "3"
		}
		if got[0].Attrs["attempts"] != wantAttempts {
			t.Errorf("%s attempts attr = %q, want %q", name, got[0].Attrs["attempts"], wantAttempts)
		}
	}
	// 1 attempt each for jobs 0 and 2, 3 attempts for job 1.
	if n := len(byName["attempt"]); n != 5 {
		t.Errorf("got %d attempt spans, want 5", n)
	}
	job1 := byName["job[1]"][0]
	var under1 int
	for _, a := range byName["attempt"] {
		if a.Parent == job1.ID {
			under1++
			if a.Lane != job1.Lane {
				t.Errorf("attempt lane %d != job lane %d", a.Lane, job1.Lane)
			}
		}
	}
	if under1 != 3 {
		t.Errorf("job[1] has %d attempt children, want 3", under1)
	}
	if job1.Attrs["error"] == "" {
		t.Errorf("failed job span lacks error attr")
	}
}

// TestPoolMetricsAdvance asserts the pool counts its work into the registry
// its context carries, and the occupancy gauge returns to zero.
func TestPoolMetricsAdvance(t *testing.T) {
	reg := obs.NewRegistry(Metrics...)
	_, err := MapPolicy(obs.WithRegistry(context.Background(), reg), 4, Policy{
		Workers:     2,
		MaxAttempts: 2,
	}, func(_ context.Context, i int) (int, error) {
		if i == 3 {
			return 0, errors.New("always fails")
		}
		return i, nil
	})
	if err == nil {
		t.Fatalf("want aggregated error")
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	for _, want := range []string{
		"zatel_runner_jobs_total 4",
		"zatel_runner_retries_total 1", // job 3's second attempt
		"zatel_runner_job_failures_total 1",
		"zatel_runner_active_workers 0",
	} {
		if !strings.Contains(b.String(), "\n"+want+"\n") {
			t.Errorf("pool metrics lack %q:\n%s", want, b.String())
		}
	}
}
