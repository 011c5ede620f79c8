package bench

import (
	"context"
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs the -smoke size of every workload, untraced and traced,
// and checks each run is correct and reports exactly the declared metrics.
func TestSmoke(t *testing.T) {
	for _, name := range WorkloadNames() {
		for _, traced := range []bool{false, true} {
			rep, err := Run(context.Background(), Config{
				Workload: name, Seed: 7, Seconds: 0.15, Trace: traced, Smoke: true, TmpDir: t.TempDir(),
			})
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, traced, err)
			}
			if !rep.Correct {
				t.Errorf("%s trace=%t: incorrect: %v", name, traced, rep.Problems)
			}
			if rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("%s trace=%t: attempted %d failed %d", name, traced, rep.Attempted, rep.Failed)
			}
			want := map[string]string{}
			if traced {
				for _, m := range PerLayer() {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range EndToEnd() {
					want[m.Name] = m.Unit
				}
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics reported, %d declared", name, traced, len(rep.Metrics), len(want))
			}
			for mn, v := range rep.Metrics {
				if want[mn] != v.Unit {
					t.Errorf("%s trace=%t: metric %s has unit %q, declared %q", name, traced, mn, v.Unit, want[mn])
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%t: metric %s = %v", name, traced, mn, v.Value)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, mn, v.Value)
				}
			}
			if traced {
				if v := rep.Metrics["obs.trace_overhead_pct"].Value; v == 0 {
					t.Errorf("%s: obs.trace_overhead_pct not measured", name)
				}
				if name != ServeTiers && rep.Metrics["core.step_coverage"].Value <= 0 {
					t.Errorf("%s: core.step_coverage not measured", name)
				}
			}
		}
	}
}

// TestDeclarations checks the metric tables against themselves and against
// BENCHMARK.json: names are well formed, every per-layer metric names an
// end-to-end metric and a workload it should move, and the JSON contract
// declares exactly what the harness reports.
func TestDeclarations(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var contract struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}

	workloads := map[string]bool{}
	for i, name := range WorkloadNames() {
		workloads[name] = true
		if i >= len(contract.Workloads) || contract.Workloads[i].Name != name {
			t.Errorf("BENCHMARK.json workload %d is not %s", i, name)
		}
	}
	if len(contract.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the harness runs %d", len(contract.Workloads), len(workloads))
	}
	for _, w := range contract.Workloads {
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	e2e := map[string]bool{}
	for i, m := range EndToEnd() {
		e2e[m.Name] = true
		if !metricName.MatchString(m.Name) {
			t.Errorf("end-to-end metric name %q is malformed", m.Name)
		}
		// The benchmark contract: at most 0.25, and setup_s has the largest.
		if m.Bound <= 0 || m.Bound > 0.25 || m.Bound > EndToEnd()[0].Bound {
			t.Errorf("%s: bound %v outside (0, 0.25] or above setup_s's", m.Name, m.Bound)
		}
		if i >= len(contract.EndToEnd) {
			t.Errorf("BENCHMARK.json lacks end-to-end metric %s", m.Name)
			continue
		}
		d := contract.EndToEnd[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better || d.Bound == nil || *d.Bound != m.Bound {
			t.Errorf("BENCHMARK.json end_to_end[%d] = %+v, harness declares %+v", i, d, m)
		}
	}
	if len(contract.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics, the harness %d", len(contract.EndToEnd), len(e2e))
	}

	seen := map[string]bool{}
	for i, m := range PerLayer() {
		if !metricName.MatchString(m.Name) {
			t.Errorf("per-layer metric name %q is malformed", m.Name)
		}
		if seen[m.Name] || e2e[m.Name] {
			t.Errorf("metric name %s is used twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if !e2e[m.Moves] {
			t.Errorf("%s: moves %q, which is not an end-to-end metric", m.Name, m.Moves)
		}
		if !workloads[m.On] {
			t.Errorf("%s: on %q, which is not a workload", m.Name, m.On)
		}
		if i >= len(contract.PerLayer) {
			t.Errorf("BENCHMARK.json lacks per-layer metric %s", m.Name)
			continue
		}
		d := contract.PerLayer[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better || d.Bound != nil {
			t.Errorf("BENCHMARK.json per_layer[%d] = %+v, harness declares %+v", i, d, m.Metric)
		}
	}
	if len(contract.PerLayer) != len(seen) {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, the harness %d", len(contract.PerLayer), len(seen))
	}

	if len(contract.Paths) != 2 || contract.Paths[0] != "cmd/zatelbench" || contract.Paths[1] != "internal/bench" {
		t.Errorf("BENCHMARK.json paths = %v", contract.Paths)
	}
}

// TestLayersFileConfinesInternalImports keeps every call into the
// repository's packages in layers.go.
func TestLayersFileConfinesInternalImports(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if strings.HasPrefix(imp.Path.Value, `"zatel/internal/`) && file != "layers.go" {
				t.Errorf("%s imports %s; only layers.go may call into the layers", file, imp.Path.Value)
			}
		}
	}
}

// TestTracedHalves checks the rule that splits a traced run's operations
// into a traced and an untraced half: every input changes sides from one
// pass to the next, and so do neighbouring inputs within a pass.
func TestTracedHalves(t *testing.T) {
	tr := newTracer()
	for n := 0; n < 3; n++ {
		for i := 0; i < 4; i++ {
			if got, want := tr.on(i, n) != nil, (i+n)%2 == 1; got != want {
				t.Errorf("operation %d of pass %d: traced = %t, want %t", i, n, got, want)
			}
		}
	}
	if (*tracer)(nil).on(1, 0) != nil {
		t.Error("an untraced run traced an operation")
	}
}

type fakeClock struct{ t time.Duration }

func (c *fakeClock) Now() time.Duration    { return c.t }
func (c *fakeClock) Sleep(d time.Duration) { c.t += d }

// TestOpenLoopTimesFromDueInstant injects one stalled request and checks
// that the requests queued behind it are charged the wait: latency runs
// from when a request was due, not from when it was finally sent.
func TestOpenLoopTimesFromDueInstant(t *testing.T) {
	const msec = time.Millisecond
	clk := &fakeClock{t: 1000 * time.Second}
	samples, elapsed := openLoop(clk, 1, 6, 10*msec, func(_, i int) outcome {
		if i == 2 {
			clk.Sleep(35 * msec) // the stall
		} else {
			clk.Sleep(1 * msec)
		}
		return outcome{}
	})
	want := []struct{ latency, service, late time.Duration }{
		{1 * msec, 1 * msec, 0},
		{1 * msec, 1 * msec, 0},
		{35 * msec, 35 * msec, 0},
		{26 * msec, 1 * msec, 25 * msec}, // due at 30, sent at 55
		{17 * msec, 1 * msec, 16 * msec},
		{8 * msec, 1 * msec, 7 * msec},
	}
	for i, w := range want {
		s := samples[i]
		if s.Latency != w.latency || s.Service != w.service || s.Late != w.late {
			t.Errorf("request %d: latency %v service %v late %v, want %v %v %v",
				i, s.Latency, s.Service, s.Late, w.latency, w.service, w.late)
		}
	}
	if elapsed != 58*msec {
		t.Errorf("elapsed %v, want 58ms", elapsed)
	}
}

func TestZipfFavoursLowRanks(t *testing.T) {
	// Rank 0 of 256 carries 1/H(256) = 16.3% of a Zipf(1) stream.
	z := newZipf(rand.New(rand.NewSource(3)), 256)
	counts := make([]int, 256)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[z.next()]++
	}
	if share := float64(counts[0]) / draws; share < 0.15 || share > 0.18 {
		t.Errorf("rank 0 share %.3f, want about 0.163", share)
	}
	if counts[0] <= counts[1] || counts[1] <= counts[10] || counts[10] <= counts[200] {
		t.Errorf("popularity does not fall with rank: %d %d %d %d", counts[0], counts[1], counts[10], counts[200])
	}
}
