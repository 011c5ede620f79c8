// Package bench is zatelbench: the repository's benchmark harness. It runs
// one of four named workloads against the real packages, checks what they
// return, and reports seven end-to-end metrics (tracing off) or the
// per-layer metrics of a traced run. cmd/zatelbench/README.md holds the
// metric table, the predicted interactions and the known blind spots;
// BENCHMARK.json at the repository root is the machine-readable contract.
//
// A run is: set-up (repeated while that is cheap, so setup_s is a median),
// then whole measured passes over the workload's inputs until the time
// budget is spent. Every pass runs the same inputs and must reproduce the
// first pass's results bit for bit.
package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

// Config selects one run.
type Config struct {
	Workload string
	Seed     uint64
	// Seconds is the measured-phase budget. Passes are whole, so the phase
	// ends with the first pass that crosses it.
	Seconds float64
	// Trace selects the traced run: spans on, per-layer metrics out.
	Trace bool
	// Smoke shrinks every workload to a few cheap inputs (go test).
	Smoke bool
	// TmpDir holds the disk tiers of serve_tiers; it is created if missing
	// and the harness removes what it puts there.
	TmpDir string
	// SpansPath, when set on a traced run, receives every span as JSON.
	SpansPath string
}

// Value is one reported metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report is the outcome of one run.
type Report struct {
	Config    Config
	Correct   bool
	Problems  []string // every reason Correct is false
	Details   []string
	Attempted int
	Failed    int // includes Refused
	Refused   int
	Metrics   map[string]Value
	// Digest is the SHA-256 over every prediction and every reference
	// report of one pass, wall times excluded, in input order. A change
	// that only makes the host faster leaves it unchanged.
	Digest string
	Setups []time.Duration
	Passes int
	// MeasuredWall and MeasuredCPU are the measured phase on both clocks.
	MeasuredWall, MeasuredCPU time.Duration
	Samples                   int // latencies behind predict_ms_p50/p90, all passes
	// Repeats counts the serial operations that were run again because the
	// process was kept off the processor during them (see timed).
	Repeats    int
	GOMAXPROCS int // as the run was measured
	spans      []span
}

// summary is what a workload hands back after its measured phase.
type summary struct {
	attempted, failed, refused int
	repeats                    int
	problems                   []string
	details                    []string
	p50, p90                   time.Duration // time of one prediction as its caller sees it
	samples                    int           // latencies behind p50 and p90, all passes
	perSecond                  float64
	speedup                    float64
	maePct                     float64
	heapMiB                    float64 // 0 = use the end-of-phase sample
	digest                     string
	layers                     map[string]float64 // traced runs only
}

// workload is one of the four benchmark workloads.
type workload interface {
	// setup does everything the first timed operation needs. After a
	// teardown it must be able to do all of it again from scratch.
	setup(ctx context.Context, tr *tracer) error
	// pass runs measured pass n; tr is nil when the pass is untraced.
	pass(ctx context.Context, tr *tracer, n int) error
	teardown()
	summarize(tr *tracer) summary
}

// Set-up is repeated, and setup_s is the median, for as long as that is
// cheap: at most setupRepeats times, and not once more after setupBudget has
// gone into it. cold_frame, whose set-up is 48 full simulations, sets up
// once.
const (
	setupRepeats = 3
	setupBudget  = 4 * time.Second
)

// Run executes one benchmark run.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	var w workload
	switch cfg.Workload {
	case ColdFrame, WarmSweep, AdaptiveCI:
		w = newFrameWorkload(cfg)
	case ServeTiers:
		w = newServeWorkload(cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.Workload, WorkloadNames())
	}
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	rep := &Report{Config: cfg, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	defer w.teardown()
	repeats := setupRepeats
	if cfg.Trace {
		repeats = 1 // setup_s is not reported by a traced run
	}
	var spent time.Duration
	for i := 0; i < repeats && (i == 0 || spent < setupBudget); i++ {
		if i > 0 {
			w.teardown()
		}
		start := now()
		if err := w.setup(ctx, tr); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.Workload, err)
		}
		rep.Setups = append(rep.Setups, now()-start)
		spent += rep.Setups[i]
	}

	budget := time.Duration(cfg.Seconds * float64(time.Second))
	start, startCPU := now(), onCPU()
	for n := 0; n == 0 || now()-start < budget; n++ {
		if err := w.pass(ctx, tr, n); err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", cfg.Workload, n, err)
		}
		rep.Passes++
	}
	rep.MeasuredWall, rep.MeasuredCPU = now()-start, onCPU()-startCPU
	runtime.GC()
	runtime.GC() // the second collection drops what sync.Pools still held through the first
	var m runtime.MemStats
	runtime.ReadMemStats(&m)

	s := w.summarize(tr)
	if s.heapMiB == 0 {
		s.heapMiB = mib(m.HeapAlloc)
	}
	rep.Attempted, rep.Failed, rep.Refused = s.attempted, s.failed, s.refused
	rep.Problems = s.problems
	rep.Details = s.details
	rep.Digest = s.digest
	rep.Samples = s.samples
	rep.Repeats = s.repeats
	if s.failed > 0 {
		rep.Problems = append(rep.Problems, fmt.Sprintf("%d of %d operations failed (%d refused)", s.failed, s.attempted, s.refused))
	}
	rep.Metrics = make(map[string]Value)
	if cfg.Trace {
		rep.spans = tr.finished()
		for _, lm := range PerLayer() {
			rep.Metrics[lm.Name] = Value{s.layers[lm.Name], lm.Unit}
		}
	} else {
		e2e := map[string]float64{
			"setup_s":           percentile(slices.Clone(rep.Setups), 0.5).Seconds(),
			"predict_ms_p50":    ms(s.p50),
			"predict_ms_p90":    ms(s.p90),
			"predictions_per_s": s.perSecond,
			"speedup_vs_full":   s.speedup,
			"mae_pct":           s.maePct,
			"heap_live_mib":     s.heapMiB,
		}
		for _, m := range EndToEnd() {
			rep.Metrics[m.Name] = Value{e2e[m.Name], m.Unit}
		}
	}
	rep.Correct = len(rep.Problems) == 0
	return rep, nil
}

// digester accumulates the results digest.
type digester struct{ parts []string }

func (d *digester) add(format string, args ...any) {
	d.parts = append(d.parts, fmt.Sprintf(format, args...))
}

func (d *digester) sum() string {
	h := sha256.New()
	for _, p := range d.parts {
		io.WriteString(h, p)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// agree reports the first index whose digest differs from digests[0], or
// -1 when every pass produced the same results.
func agree(digests []string) int {
	for i, d := range digests {
		if d != digests[0] {
			return i
		}
	}
	return -1
}

// Print writes the human-readable report followed by the one-line JSON
// result the benchmark contract asks for as the last line of output.
func (r *Report) Print(w io.Writer) error {
	c := r.Config
	fmt.Fprintf(w, "zatelbench workload=%s seed=%d trace=%t seconds=%g smoke=%t\n", c.Workload, c.Seed, c.Trace, c.Seconds, c.Smoke)
	fmt.Fprintf(w, "env: %s GOMAXPROCS=%d nproc=%d\n", runtime.Version(), r.GOMAXPROCS, runtime.NumCPU())
	fmt.Fprintf(w, "set-up: %d time(s) %v\n", len(r.Setups), r.Setups)
	fmt.Fprintf(w, "passes: %d in %.1f s wall, %.1f s on CPU; percentile samples: %d; serial operations repeated: %d\n", r.Passes,
		r.MeasuredWall.Seconds(), r.MeasuredCPU.Seconds(), r.Samples, r.Repeats)
	fmt.Fprintf(w, "operations: attempted=%d failed=%d refused=%d\n", r.Attempted, r.Failed, r.Refused)
	fmt.Fprintf(w, "results_digest: %s\n", r.Digest)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.Metrics[name]
		fmt.Fprintf(w, "metric %-28s %16.6g %s\n", name, v.Value, v.Unit)
	}
	if c.Trace {
		printSelfTimes(w, r.spans)
	}
	for _, d := range r.Details {
		fmt.Fprintf(w, "detail %s\n", d)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "INCORRECT: %s\n", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]Value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// Main is the zatelbench command: parse args, run, print, and return the
// exit code (0 only for a correct run).
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("zatelbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg Config
	fs.StringVar(&cfg.Workload, "workload", "", "workload to run: cold_frame, warm_sweep, adaptive_ci or serve_tiers")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&cfg.Seconds, "seconds", 10, "measured-phase budget in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
	fs.StringVar(&cfg.SpansPath, "spans", "", "with -trace 1, write every span to this file as JSON")
	fs.BoolVar(&cfg.Smoke, "smoke", false, "tiny inputs, for a functional check only")
	fs.StringVar(&cfg.TmpDir, "tmp", filepath.Join(".bench_build", "tmp"), "directory for the serve_tiers disk tiers")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.Trace = *trace != 0
	if raceEnabled {
		fmt.Fprintln(stderr, "zatelbench: built with -race; timings would be meaningless")
		return 1
	}
	// The layers log through slog; log I/O must not be part of what is measured.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))

	rep, err := Run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "zatelbench:", err)
		return 1
	}
	if cfg.Trace && cfg.SpansPath != "" {
		if err := writeSpans(cfg.SpansPath, rep.spans); err != nil {
			fmt.Fprintln(stderr, "zatelbench:", err)
			return 1
		}
	}
	if err := rep.Print(stdout); err != nil {
		fmt.Fprintln(stderr, "zatelbench:", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}
