package obs

import (
	"context"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeRegistry(t *testing.T) {
	events := Desc{Name: "test_obs_events_total", Type: "counter", Help: "test counter", Labels: []string{"kind"}}
	depth := Desc{Name: "test_obs_depth", Type: "gauge", Help: "test gauge"}
	lat := Desc{Name: "test_obs_seconds", Type: "histogram", Help: "test histogram", Labels: []string{"stage"}}
	idle := Desc{Name: "test_obs_idle", Type: "gauge", Help: "never used"}
	r := NewRegistry(events, depth, lat, idle)
	other := NewRegistry(events)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Add(&events, 1, "a")
				r.Add(&depth, 1)
				r.Add(&depth, -1)
				if j%10 == 0 {
					r.WritePrometheus(io.Discard) // a scrape racing the counting
				}
			}
		}()
	}
	wg.Wait()
	r.Add(&events, 2, "b")
	r.Histogram(&lat, "build").Observe(2 * time.Millisecond)
	other.Add(&events, 5, "a")

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP test_obs_events_total test counter\n# TYPE test_obs_events_total counter\n" +
			"test_obs_events_total{kind=\"a\"} 800\ntest_obs_events_total{kind=\"b\"} 2\n",
		"# TYPE test_obs_depth gauge\ntest_obs_depth 0\n",
		"# TYPE test_obs_seconds histogram\n",
		`test_obs_seconds_bucket{stage="build",le="0.005"} 1`,
		`test_obs_seconds_count{stage="build"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "test_obs_idle") {
		t.Errorf("a family without a series was exposed:\n%s", out)
	}
	r.Set(&depth, 2.5)
	b.Reset()
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), "\ntest_obs_depth 2.5\n") {
		t.Errorf("a set gauge did not read 2.5:\n%s", b.String())
	}

	// Without a registry on the context, counting is a no-op.
	var none *Registry
	none.Add(&events, 1, "a")
	if RegistryFrom(context.Background()) != nil {
		t.Error("empty context carries a registry")
	}
	if RegistryFrom(WithRegistry(context.Background(), r)) != r {
		t.Error("registry lost on the context")
	}

	defer func() {
		if recover() == nil {
			t.Error("an undeclared series did not panic")
		}
	}()
	r.Add(&Desc{Name: "test_obs_undeclared"}, 1)
}

func TestRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b {
		t.Fatalf("two request IDs collided: %s", a)
	}
	if len(a) != 16 {
		t.Fatalf("request ID %q not 16 hex chars", a)
	}
}

func TestParseLevel(t *testing.T) {
	for in, ok := range map[string]bool{
		"debug": true, "info": true, "warn": true, "warning": true,
		"error": true, "": true, "DEBUG": true, "verbose": false,
	} {
		_, err := ParseLevel(in)
		if ok != (err == nil) {
			t.Errorf("ParseLevel(%q) err=%v, want ok=%v", in, err, ok)
		}
	}
}
