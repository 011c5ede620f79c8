// Package experiments contains the drivers that regenerate every table and
// figure of the paper's evaluation (Section IV). Each driver returns a
// typed result with a Render method that prints the same rows/series the
// paper reports; cmd/sweep exposes each as one subcommand, the one way to
// regenerate the evaluation.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"zatel/internal/config"
	"zatel/internal/core"
	"zatel/internal/metrics"
	"zatel/internal/rt"
	"zatel/internal/runner"
	"zatel/internal/sampling"
	"zatel/internal/scene"
	"zatel/internal/store"
)

// Settings hold the frame parameters shared by all experiments. The paper
// evaluates at 512×512 with 2 samples per pixel; cmd/sweep's default is
// 256×256 with 1 spp so the full suite reruns in tens of minutes on one
// CPU core while both Table II GPUs still execute multiple warp waves
// (the regime Zatel's linear extrapolation assumes — see DESIGN.md).
type Settings struct {
	Width  int
	Height int
	SPP    int
	// Workers bounds the worker pool the experiment grid is scheduled on
	// (0 = one worker per CPU core, 1 = serial). Grid points are
	// independent (scene × parameter) simulations, so the rendered numbers
	// are identical at any pool size; only the timing columns move.
	Workers int
	// FT is passed to every grid point's prediction: per-group retries,
	// deadlines, degradation quorum and fault injection (see
	// core.FaultTolerance). A point whose prediction still fails after all
	// of that renders as an ERR cell instead of aborting the whole table.
	FT core.FaultTolerance
	// Ctx, when non-nil, cancels the experiment: grid points that have not
	// started complete with the context error and render as ERR cells, so
	// an interrupted sweep still prints the rows it finished.
	Ctx context.Context
	// Dist selects the pixel-selection strategy for every grid point
	// (drivers that sweep distributions themselves, like Table 3, override
	// it per point). A replicated strategy (stratified, rankedset) makes
	// sweep tables carry ±half-width error bars.
	Dist sampling.Distribution
	// Sampling and TargetCI configure the replicated strategies' replicate
	// count, confidence level and adaptive stopping (see core.Options).
	Sampling core.SamplingOptions
	TargetCI float64
}

func (s Settings) validate() error {
	if s.Width <= 0 || s.Height <= 0 || s.SPP <= 0 {
		return fmt.Errorf("experiments: invalid settings %+v", s)
	}
	return nil
}

// baseOptions assembles the shared core options for a scene/config pair.
func (s Settings) baseOptions(cfg config.Config, sceneName string) core.Options {
	return core.Options{
		Config:            cfg,
		Scene:             sceneName,
		Width:             s.Width,
		Height:            s.Height,
		SPP:               s.SPP,
		FT:                s.FT,
		Dist:              s.Dist,
		Sampling:          s.Sampling,
		TargetCIHalfWidth: s.TargetCI,
	}
}

// context resolves the Settings' cancellation context.
func (s Settings) context() context.Context {
	if s.Ctx != nil {
		return s.Ctx
	}
	return context.Background()
}

// warm computes the points' ground-truth references one after another
// before any point runs and returns them pinned for runGrid. Drivers whose
// tables show wall time call it, so that each reference's recorded WallTime
// is not time-sliced against other jobs. Points that merely share a
// reference need no warm-up: concurrent misses coalesce onto one simulation.
func (s Settings) warm(points []core.Options) (*refSet, error) {
	refs := &refSet{}
	for _, o := range points {
		if _, err := refs.get(s.context(), o); err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// refSet pins the references a grid is judged against for the length of
// the run. The store alone would not: under a -store-size budget the much
// larger workload traces the grid builds can evict a reference, and the next
// point that needs it would re-run the full-configuration simulation inside
// the pool, timed against the other jobs.
type refSet struct {
	mu sync.Mutex
	m  map[store.Digest]ref
}

// ref is a pinned reference and whether the store loaded it from a disk or
// peer frame (see core.ReferenceLoaded).
type ref struct {
	rep    metrics.Report
	loaded bool
}

// get returns o's reference, fetching it through the store the first time.
func (rs *refSet) get(ctx context.Context, o core.Options) (ref, error) {
	key := core.ReferenceKey(o.Config, rt.WorkloadKey(o.Scene, o.Width, o.Height, o.SPP))
	rs.mu.Lock()
	r, ok := rs.m[key]
	rs.mu.Unlock()
	if ok {
		return r, nil
	}
	rep, loaded, err := core.ReferenceLoaded(ctx, o)
	if err != nil {
		return ref{}, err
	}
	r = ref{rep: rep, loaded: loaded}
	rs.mu.Lock()
	if rs.m == nil {
		rs.m = make(map[store.Digest]ref)
	}
	rs.m[key] = r
	rs.mu.Unlock()
	return r, nil
}

// Configs returns the two Table II configurations in paper order.
func Configs() []config.Config {
	return []config.Config{config.MobileSoC(), config.RTX2060()}
}

// AllScenes returns the LumiBench scene names used in the evaluation.
func AllScenes() []string { return scene.Names() }

// PoolStats records how an experiment's job grid ran on the worker pool:
// CPU is what the grid costs serially (summed per-job execution time), Wall
// what it actually took end to end. The gap between the two is the
// concurrency the Section III-F deployment model banks on.
type PoolStats struct {
	Jobs    int
	Workers int
	Wall    time.Duration
	CPU     time.Duration
	// LoadedRefs counts the points judged against a reference the store
	// loaded from disk or a peer rather than simulated in this process.
	LoadedRefs int
}

// Render prints the cpu-vs-wall accounting line appended to every
// experiment table.
func (p PoolStats) Render(w io.Writer) {
	if p.Jobs == 0 {
		return
	}
	conc := 1.0
	if p.Wall > 0 {
		conc = float64(p.CPU) / float64(p.Wall)
	}
	fmt.Fprintf(w, "pool: %d jobs on %d workers — cpu %s, wall %s (%.1fx concurrency)\n",
		p.Jobs, p.Workers, fmtDur(p.CPU), fmtDur(p.Wall), conc)
}

// renderLoaded prints the legend of loadedCell's mark.
func (p PoolStats) renderLoaded(w io.Writer) {
	if p.LoadedRefs > 0 {
		fmt.Fprintf(w, "‡ %d point(s) use a reference loaded from the artifact store: its wall time was measured by an earlier process, perhaps on another host or under other load\n",
			p.LoadedRefs)
	}
}

// loadedCell marks a speedup computed against a loaded reference.
func loadedCell(loaded bool, value string) string {
	if loaded {
		return value + "‡"
	}
	return value
}

// outcome is one grid point's result: its prediction, the reference it is
// judged against (and whether that was loaded, see core.ReferenceLoaded),
// and its failure (nil on success, res and ref unset otherwise).
type outcome struct {
	res       *core.Result
	ref       metrics.Report
	refLoaded bool
	err       error
}

// degraded counts the groups the point's prediction lost to failures.
func (o outcome) degraded() int {
	if o.res == nil || o.res.Degraded == nil {
		return 0
	}
	return len(o.res.Degraded.FailedGroups)
}

// work is the simulated-work ratio: the reference's instructions over the
// instructions the prediction's groups simulated. Unlike the wall-clock
// speedup it is deterministic, so tests order points by it.
func (o outcome) work() float64 {
	var n uint64
	for _, g := range o.res.Groups {
		n += g.Report.Instructions
	}
	if n == 0 {
		return 0
	}
	return float64(o.ref.Instructions) / float64(n)
}

// runGrid predicts every point on the Settings' worker pool and returns the
// outcomes in point order with the pool accounting and the fault tally.
// References come from refs (warm's, or nil for a fresh set) and stay pinned
// there until the grid ends. Point i's fault injection is re-rooted with
// SplitSeed(i), so points fail independently of each other and of the pool
// size. A failure is embedded in the point's outcome, wrapped in label(i),
// instead of aborting the grid; only a point cancelled before it started
// keeps the bare runner error.
func (s Settings) runGrid(points []core.Options, refs *refSet, label func(i int) string) ([]outcome, PoolStats, FaultTally) {
	if refs == nil {
		refs = &refSet{}
	}
	start := time.Now()
	// SpanPrefix records one "point[i]" span per grid point when cmd/sweep
	// attached a tracer to Settings.Ctx (-trace); each point's nested
	// "predict" step spans hang below it.
	rs, _ := runner.MapPolicy(s.context(), len(points), runner.Policy{Workers: s.Workers, SpanPrefix: "point"},
		func(ctx context.Context, i int) (outcome, error) {
			opts := points[i]
			opts.FT.Inject = opts.FT.Inject.SplitSeed(uint64(i))
			ref, err := refs.get(ctx, opts)
			if err != nil {
				return outcome{err: fmt.Errorf("%s reference: %w", label(i), err)}, nil
			}
			res, err := core.PredictContext(ctx, opts)
			if err != nil {
				return outcome{err: fmt.Errorf("%s: %w", label(i), err)}, nil
			}
			return outcome{res: res, ref: ref.rep, refLoaded: ref.loaded}, nil
		})
	pool := PoolStats{Jobs: len(points), Workers: runner.PoolSize(s.Workers), Wall: time.Since(start)}
	pool.CPU, _ = runner.Totals(rs)
	outs := make([]outcome, len(rs))
	var tally FaultTally
	for i, r := range rs {
		outs[i] = r.Value
		if r.Err != nil && outs[i].err == nil {
			outs[i] = outcome{err: r.Err}
		}
		if tally.noteErr(outs[i].err) {
			continue
		}
		if outs[i].degraded() > 0 {
			tally.Degraded++
		}
		if outs[i].refLoaded {
			pool.LoadedRefs++
		}
	}
	return outs, pool, tally
}

// FaultTally summarises a grid's failed and degraded points so tables can
// render an explicit legend instead of aborting on the first failure.
type FaultTally struct {
	// Failed counts grid points whose prediction errored (including points
	// cancelled before they started); FirstErr keeps the first cause.
	Failed   int
	FirstErr string
	// Degraded counts points whose prediction lost groups but met quorum.
	Degraded int
}

// noteErr records a point failure; it reports whether err was non-nil.
func (t *FaultTally) noteErr(err error) bool {
	if err == nil {
		return false
	}
	t.Failed++
	if t.FirstErr == "" {
		t.FirstErr = err.Error()
	}
	return true
}

// Render prints the degraded/failed legend appended to experiment tables.
func (t FaultTally) Render(w io.Writer) {
	if t.Degraded > 0 {
		fmt.Fprintf(w, "† %d cell(s) degraded: prediction merged from surviving groups only (see DESIGN.md, failure semantics)\n",
			t.Degraded)
	}
	if t.Failed > 0 {
		fmt.Fprintf(w, "ERR: %d cell(s) failed after retries; first error: %s\n", t.Failed, t.FirstErr)
	}
}

// faultCell renders a grid cell's value, substituting ERR for a failed
// point and marking a degraded one with †.
func faultCell(failed bool, degraded int, value string) string {
	switch {
	case failed:
		return "ERR"
	case degraded > 0:
		return value + "†"
	}
	return value
}

// fmtDur prints a duration with millisecond precision.
func fmtDur(d time.Duration) string { return d.Round(time.Millisecond).String() }

// pct formats a fraction as a percentage.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// hr writes a horizontal rule sized to n characters.
func hr(w io.Writer, n int) {
	for i := 0; i < n; i++ {
		fmt.Fprint(w, "-")
	}
	fmt.Fprintln(w)
}
