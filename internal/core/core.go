// Package core implements Zatel itself: the seven-step prediction pipeline
// of Section III. Given a scene and a target GPU configuration it
//
//  1. profiles the per-pixel execution-time heatmap (functional mode),
//  2. quantizes the heatmap with K-means,
//  3. downscales the GPU by K = gcd(#SM, #MemPartitions),
//  4. divides the image plane into K groups (fine- or coarse-grained),
//  5. selects representative pixels per group (Eq. 1–3),
//  6. runs one downscaled simulator instance per group concurrently, and
//  7. extrapolates and combines the group statistics into the prediction.
package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"zatel/internal/combine"
	"zatel/internal/config"
	"zatel/internal/extrapolate"
	"zatel/internal/faults"
	"zatel/internal/gpu"
	"zatel/internal/heatmap"
	"zatel/internal/metrics"
	"zatel/internal/obs"
	"zatel/internal/partition"
	"zatel/internal/rt"
	"zatel/internal/runner"
	"zatel/internal/sampling"
	"zatel/internal/scene"
	"zatel/internal/store"
	"zatel/internal/vecmath"
)

// Division selects the image-plane division method of Section III-D.
type Division uint8

const (
	// FineGrained deals small chunks to groups round-robin (the method
	// Zatel ships with: better and more stable accuracy).
	FineGrained Division = iota
	// CoarseGrained splits the plane into contiguous tiles; provided for
	// the Section IV-E comparison.
	CoarseGrained
)

// String implements fmt.Stringer.
func (d Division) String() string {
	if d == FineGrained {
		return "fine"
	}
	return "coarse"
}

// Valid reports whether d names one of the two division methods.
func (d Division) Valid() bool { return d == FineGrained || d == CoarseGrained }

// ParseDivision resolves the division names accepted across the CLIs and the
// HTTP API; the empty name selects fine-grained.
func ParseDivision(name string) (Division, error) {
	switch strings.ToLower(name) {
	case "", "fine":
		return FineGrained, nil
	case "coarse":
		return CoarseGrained, nil
	default:
		return 0, fmt.Errorf("unknown division %q (want fine or coarse)", name)
	}
}

// Options configures a prediction. Zero values select the paper's defaults.
type Options struct {
	// Config is the target (full-size) GPU.
	Config config.Config
	// Scene is a scene-library name.
	Scene string
	// Width, Height, SPP describe the frame (defaults 128×128×2).
	Width, Height, SPP int

	// K overrides the downscaling factor (0 = gcd rule).
	K int
	// NoDownscale runs the full GPU on one group — the Section IV-D mode
	// that isolates the representative-pixel optimization.
	NoDownscale bool
	// Division selects fine- or coarse-grained division.
	Division Division
	// ChunkW/ChunkH are the fine-grained chunk dimensions (default 32×2:
	// warp width, minimal height).
	ChunkW, ChunkH int
	// BlockW/BlockH are the coarse-grained section-block dimensions
	// (default 32×2).
	BlockW, BlockH int
	// QuantLevels is the K-means palette size (default 8).
	QuantLevels int
	// Dist is the colour distribution for pixel selection.
	Dist sampling.Distribution
	// Sampling tunes replicate counts, the confidence level and the
	// adaptive round schedule. Every strategy runs one group loop (see
	// simulateGroup); only the replicated strategies (stratified,
	// rankedset) draw replicates and rounds from these settings, but they
	// are validated for every strategy.
	Sampling SamplingOptions
	// TargetCIHalfWidth, when positive, enables adaptive sample sizing:
	// each group re-draws a 1.5-times-larger subset per round until every
	// metric's relative CI half-width (half-width divided by |mean|) is at
	// most this target, bounded by MaxFraction and Sampling.MaxRounds.
	// Requires a replicated strategy.
	TargetCIHalfWidth float64
	// FixedFraction forces each group to trace exactly this fraction
	// (0 = use Eq. 1). When MaxFraction is also set, FixedFraction may
	// not exceed it.
	FixedFraction float64
	// MaxFraction caps the Eq. 1 budget and the adaptive rounds' growth
	// (0 = no cap); the paper uses 0.1 to reach 50× speedup on PARK. It is
	// an upper bound on every group's budget, so a FixedFraction above it
	// is rejected rather than silently clamped.
	MaxFraction float64
	// SingleGroup simulates only the first of the K groups and scales its
	// throughput by K — the Section IV-E downscaling experiment, where one
	// downscaled instance tracing 1/K of the pixels stands in for the
	// whole frame.
	SingleGroup bool
	// Regression enables the Section IV-F exponential-regression
	// extrapolation from runs at 20/30/40%.
	Regression bool
	// Parallel runs the group instances on the bounded worker pool
	// (internal/runner). The default runs them serially and reports the
	// slowest group as the simulation wall time — the honest model of the
	// paper's deployment (one simulator process per CPU core) that is also
	// correct on single-core hosts, where concurrent instances merely
	// time-slice.
	Parallel bool
	// Workers bounds the pool when Parallel is set (0 = one worker per
	// CPU core, runtime.GOMAXPROCS).
	Workers int
	// Seed roots block-selection randomness (default 1).
	Seed uint64
	// FT configures the step-6 fan-out's fault tolerance: per-group
	// retries, deadlines, the degradation quorum and fault injection. The
	// zero value runs each group once and degrades at quorum ceil(K/2).
	FT FaultTolerance
	// Store is the artifact store the step-1/2 quantized heatmap and the
	// reference (ReferenceContext) go through. Nil selects the process-wide
	// store.Default(). The workload trace always lands in store.Default(),
	// since it is shared infrastructure beyond this one prediction.
	Store *store.Store
}

// SamplingOptions tunes the repeated-subsampling machinery of the
// replicated selection strategies. Zero values select the defaults.
type SamplingOptions struct {
	// Replicates is the number of disjoint sub-draws per round (default 5).
	// Each replicate simulates and extrapolates independently; the spread
	// of the per-replicate estimates yields the confidence interval.
	Replicates int
	// Confidence is the interval's confidence level: 0.90, 0.95 (the
	// default) or 0.99 — the tabulated Student-t levels.
	Confidence float64
	// MaxRounds caps the adaptive re-draw rounds when TargetCIHalfWidth is
	// set (default 4); the last round's interval stands even if the target
	// was not met (GroupRun.TargetMet reports which).
	MaxRounds int
}

// roundGrowth multiplies the traced fraction between adaptive rounds.
const roundGrowth = 1.5

// artifactStore resolves the store the prediction's stage hooks use.
func (o *Options) artifactStore() *store.Store {
	if o.Store != nil {
		return o.Store
	}
	return store.Default()
}

// FaultTolerance bundles the resilience knobs of the group fan-out. A
// failed or hung group instance no longer kills the whole prediction:
// groups retry with exponential backoff under per-attempt deadlines, and
// when a group exhausts its retries the prediction continues from the
// surviving groups as long as a quorum of them remains.
type FaultTolerance struct {
	// Attempts is the total number of times a failing group instance may
	// run (values <= 1 mean no retries).
	Attempts int
	// Backoff is the base wait before a group's second attempt; it doubles
	// per further attempt with seeded jitter (see runner.Policy).
	Backoff time.Duration
	// Timeout is the per-attempt deadline for one group instance (0 =
	// none).
	Timeout time.Duration
	// Quorum is the minimum number of surviving groups required to emit a
	// (possibly degraded) prediction: 0 selects the default ceil(K/2),
	// values above K clamp to K, and negative values demand every group
	// succeed (strict mode — any group failure is an error, the pre-fault-
	// tolerance behaviour).
	Quorum int
	// Inject configures the deterministic fault injector applied to every
	// group instance (zero = disabled); used by soak tests and the
	// -inject-* CLI flags.
	Inject faults.Config
}

// quorumFor resolves the configured quorum against the actual group count.
func (ft FaultTolerance) quorumFor(total int) int {
	switch {
	case ft.Quorum < 0, ft.Quorum > total:
		return total
	case ft.Quorum == 0:
		return (total + 1) / 2
	default:
		return ft.Quorum
	}
}

// Degradation reports a prediction that lost groups to failures but met
// quorum: which groups failed and what the surviving merge was re-weighted
// against. Each failed group's error and attempts are on its GroupRun.
type Degradation struct {
	// FailedGroups lists the indices of groups whose instances exhausted
	// their retries, in index order.
	FailedGroups []int `json:"failed_groups"`
	// Quorum is the surviving-group minimum that was in force.
	Quorum int `json:"quorum"`
	// Survivors counts the groups that contributed to the prediction.
	Survivors int `json:"survivors"`
	// Total is the number of groups the prediction fanned out to.
	Total int `json:"total"`
}

// String summarises the degradation for logs and CLI output.
func (d *Degradation) String() string {
	return fmt.Sprintf("degraded: %d/%d groups failed %v (quorum %d, %d survivors re-weighted)",
		len(d.FailedGroups), d.Total, d.FailedGroups, d.Quorum, d.Survivors)
}

func (o *Options) fillDefaults() {
	if o.Width == 0 {
		o.Width = 128
	}
	if o.Height == 0 {
		o.Height = 128
	}
	if o.SPP == 0 {
		o.SPP = 2
	}
	if o.ChunkW == 0 {
		o.ChunkW = 32
	}
	if o.ChunkH == 0 {
		o.ChunkH = 2
	}
	if o.BlockW == 0 {
		o.BlockW = 32
	}
	if o.BlockH == 0 {
		o.BlockH = 2
	}
	if o.QuantLevels == 0 {
		o.QuantLevels = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Sampling.Replicates == 0 {
		o.Sampling.Replicates = 5
	}
	if o.Sampling.Confidence == 0 {
		o.Sampling.Confidence = 0.95
	}
	if o.Sampling.MaxRounds == 0 {
		o.Sampling.MaxRounds = 4
	}
}

// GroupError is a group's final error. Its text form is the message alone,
// which is what a cached prediction keeps; in the process that ran the
// group it also unwraps to the cause.
type GroupError struct {
	msg   string
	cause error
}

func (e *GroupError) Error() string { return e.msg }

// Unwrap returns the cause, nil on a GroupError decoded from a cache tier.
func (e *GroupError) Unwrap() error { return e.cause }

// MarshalText implements encoding.TextMarshaler.
func (e *GroupError) MarshalText() ([]byte, error) { return []byte(e.msg), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (e *GroupError) UnmarshalText(msg []byte) error {
	e.msg = string(msg)
	return nil
}

// GroupRun records one group's simulation. Its json tags, with Result's,
// Degradation's and extrapolate.Interval's, are the core.predict/v2 format.
type GroupRun struct {
	// Report is the downscaled simulator's output for the group (for
	// regression mode, the run at the largest fraction).
	Report metrics.Report `json:"report"`
	// Fraction is the traced-pixel fraction of the group.
	Fraction float64 `json:"fraction"`
	// Pixels and Selected count the group's pixels and traced pixels.
	Pixels   int `json:"pixels"`
	Selected int `json:"selected"`
	// WallTime is the host time this group's selection(s) and
	// simulation(s) took.
	WallTime time.Duration `json:"wall_ns"`
	// QueueTime is how long the group waited for a pool worker — nonzero
	// when more groups than workers contend for the pool.
	QueueTime time.Duration `json:"queue_ns"`
	// Attempts counts how many times the group's instance ran (retries
	// included; zero when the group was cancelled before starting).
	Attempts int `json:"attempts"`
	// Err is the group's final error when it exhausted its retries; such
	// groups carry no Report and are excluded from the merged prediction.
	Err *GroupError `json:"err,omitempty"`
	// Intervals holds the group's per-metric confidence intervals when the
	// strategy is replicated (stratified, rankedset); nil otherwise. Report
	// then holds the final round's last replicate, and Fraction/Selected
	// cover the final round's replicates combined.
	Intervals combine.GroupIntervals `json:"intervals,omitempty"`
	// Replicates is the sub-draw count of the final round (0 for
	// point-estimate strategies).
	Replicates int `json:"replicates,omitempty"`
	// Rounds counts the adaptive re-draw rounds executed (1 when no CI
	// target was set; 0 for point-estimate strategies).
	Rounds int `json:"rounds,omitempty"`
	// TargetMet reports whether the CI half-width target was met (always
	// true when no target was set).
	TargetMet bool `json:"target_met"`
}

// Result is a complete Zatel prediction.
type Result struct {
	// Predicted holds the final per-metric prediction.
	Predicted combine.GroupValues `json:"predicted"`
	// Intervals holds the merged per-metric confidence intervals when the
	// strategy is replicated (stratified, rankedset); nil otherwise.
	// Predicted then equals the interval means.
	Intervals combine.GroupIntervals `json:"intervals,omitempty"`
	// Groups holds the per-group runs.
	Groups []GroupRun `json:"groups"`
	// K is the downscaling factor used.
	K int `json:"k"`
	// Quantized is the heatmap the selection was driven by. PredictContext
	// always sets it; it is nil on a Result that came out of a cache tier
	// (memory, disk or peer), because the predict codec and the service's
	// store entries leave it out: the heatmap is the store's own quant/v1
	// artifact (QuantizedKey), shared by every prediction over one profile.
	Quantized *heatmap.Quantized `json:"-"`
	// PreprocessTime covers heatmap generation and quantization.
	PreprocessTime time.Duration `json:"preprocess_ns"`
	// SimWallTime is the simulation wall time: the slowest group when
	// groups run concurrently (they occupy separate CPU cores, as the
	// paper's methodology prescribes).
	SimWallTime time.Duration `json:"sim_wall_ns"`
	// TotalCPUTime sums all group simulation time.
	TotalCPUTime time.Duration `json:"total_cpu_ns"`
	// Degraded is non-nil when some groups failed but a quorum survived:
	// Predicted was merged from the survivors with fraction re-weighting.
	Degraded *Degradation `json:"degraded,omitempty"`
}

var filteredTrace = rt.FilteredTrace()

// StepSpanNames are the names of the seven top-level pipeline step spans
// PredictContext records, in pipeline order, when the context carries an
// obs.Tracer. They are the vocabulary of DESIGN.md's span taxonomy and the
// label values of zateld's zatel_step_latency_seconds histogram; together
// the seven spans cover (almost) the whole prediction wall time.
var StepSpanNames = []string{
	"step1_profile",   // functional workload trace fetch/build (heatmap source)
	"step2_quantize",  // K-means heatmap quantization (store-cached)
	"step3_downscale", // GPU config downscaling by K
	"step4_partition", // image-plane division into K groups
	"step5_select",    // representative-pixel selection (Eq. 1–3)
	"step6_simulate",  // per-group downscaled simulator fan-out
	"step7_combine",   // grading, degradation decision, extrapolate+merge
}

// Pipeline metrics. PredictContext counts into the registry its context
// carries (zateld attaches its server's to every build) and counts nothing
// without one. Metrics lists them for that registry's declarations.
var (
	mPredictions   = obs.Desc{Name: "zatel_predictions_total", Type: "counter", Help: "predictions completed, degraded ones included"}
	mDegraded      = obs.Desc{Name: "zatel_predict_degraded_total", Type: "counter", Help: "predictions merged from a surviving quorum after group failures"}
	mGroupFailures = obs.Desc{Name: "zatel_predict_group_failures_total", Type: "counter", Help: "group instances lost after retries"}
	Metrics        = []obs.Desc{mPredictions, mDegraded, mGroupFailures}
)

// Predict runs the Zatel pipeline.
func Predict(opts Options) (*Result, error) {
	return PredictContext(context.Background(), opts)
}

// Validate applies the defaults to a copy of o and checks every option
// enum, range and combination, without building anything: an invalid
// division or distribution must not cost a full path trace first. It is
// the one options check — PredictContext and zateld's request decoding
// both call it — so it stays cheap enough for every served request.
func (o Options) Validate() error {
	o.fillDefaults()
	return o.validate()
}

// validate is Validate on options whose defaults are already applied.
func (o *Options) validate() error {
	if err := o.Config.Validate(); err != nil {
		return err
	}
	if o.Width < 0 || o.Height < 0 || o.SPP < 0 {
		return fmt.Errorf("core: negative frame dimensions %dx%d spp=%d", o.Width, o.Height, o.SPP)
	}
	if o.FixedFraction < 0 || o.FixedFraction > 1 {
		return fmt.Errorf("core: FixedFraction %v out of [0,1]", o.FixedFraction)
	}
	if o.MaxFraction < 0 || o.MaxFraction > 1 {
		return fmt.Errorf("core: MaxFraction %v out of [0,1]", o.MaxFraction)
	}
	if o.MaxFraction > 0 && o.FixedFraction > o.MaxFraction {
		return fmt.Errorf("core: FixedFraction %v exceeds MaxFraction %v", o.FixedFraction, o.MaxFraction)
	}
	if !o.Division.Valid() {
		return fmt.Errorf("core: unknown division %d", o.Division)
	}
	if !o.Dist.Valid() {
		return fmt.Errorf("core: unknown distribution %d", o.Dist)
	}
	if o.TargetCIHalfWidth < 0 {
		return fmt.Errorf("core: negative TargetCIHalfWidth %v", o.TargetCIHalfWidth)
	}
	if o.TargetCIHalfWidth > 0 && !o.Dist.Replicated() {
		return fmt.Errorf("core: TargetCIHalfWidth requires a replicated strategy (stratified or rankedset), got %s", o.Dist)
	}
	if o.Regression && o.Dist.Replicated() {
		return fmt.Errorf("core: Regression and replicated strategy %s are mutually exclusive extrapolation schemes", o.Dist)
	}
	// Regression traces 20/30/40 % subsets of each group (Sec. IV-F); a
	// budget below 40 % cannot hold them.
	for _, f := range []float64{o.FixedFraction, o.MaxFraction} {
		if o.Regression && f > 0 && f < regressionFracs[2] {
			return fmt.Errorf("core: Regression traces up to %v of each group, above the %v fraction budget", regressionFracs[2], f)
		}
	}
	if o.Sampling.Replicates < 2 {
		return fmt.Errorf("core: Sampling.Replicates %d < 2 (a confidence interval needs at least two sub-draws)", o.Sampling.Replicates)
	}
	switch o.Sampling.Confidence {
	case 0.90, 0.95, 0.99:
	default:
		return fmt.Errorf("core: Sampling.Confidence %v unsupported (want 0.90, 0.95 or 0.99)", o.Sampling.Confidence)
	}
	if o.Sampling.MaxRounds < 1 {
		return fmt.Errorf("core: Sampling.MaxRounds %d < 1", o.Sampling.MaxRounds)
	}
	if o.K < 0 {
		return fmt.Errorf("core: negative downscaling factor %d", o.K)
	}
	if o.FT.Attempts < 0 {
		return fmt.Errorf("core: negative retry attempts %d", o.FT.Attempts)
	}
	if o.FT.Backoff < 0 || o.FT.Timeout < 0 {
		return fmt.Errorf("core: negative retry backoff %v or timeout %v", o.FT.Backoff, o.FT.Timeout)
	}
	if err := o.FT.Inject.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if !scene.Known(o.Scene) {
		return fmt.Errorf("core: unknown scene %q (want one of %s)", o.Scene, strings.Join(scene.Names(), ", "))
	}
	return nil
}

// PredictContext runs the Zatel pipeline. Cancelling ctx stops group
// simulations that have not started yet.
func PredictContext(ctx context.Context, opts Options) (*Result, error) {
	opts.fillDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}

	// Root span: everything below nests under it; the seven step spans
	// tile its duration (verified by TestTraceStepSpansCoverWallTime).
	ctx, root := obs.StartSpan(ctx, "predict")
	root.SetAttr("scene", opts.Scene)
	root.SetAttr("config", opts.Config.Name)
	defer root.End()

	// The functional workload (traces + per-pixel cost) is shared
	// infrastructure: the full simulation replays the same traces, and the
	// paper obtains the equivalent profile from a hardware GPU in seconds.
	// It is therefore fetched outside the timed preprocessing.
	s1ctx, sp1 := obs.StartSpan(ctx, "step1_profile")
	wl, err := rt.CachedWorkloadContext(s1ctx, opts.Scene, opts.Width, opts.Height, opts.SPP)
	sp1.End()
	if err != nil {
		return nil, err
	}

	// Step 1–2: heatmap generation and quantization, content-addressed in
	// the artifact store so the expensive K-means pass is paid once per
	// (workload, palette, seed) no matter how many predictions — with
	// different configs, fractions or divisions — reuse it. PreprocessTime
	// honestly reports what this call paid: the build on a miss, the
	// lookup on a hit.
	wkey := rt.WorkloadKey(opts.Scene, opts.Width, opts.Height, opts.SPP)
	preStart := time.Now()
	s2ctx, sp2 := obs.StartSpan(ctx, "step2_quantize")
	qv, _, err := opts.artifactStore().GetOrBuild(s2ctx,
		QuantizedKey(wkey, opts.QuantLevels, opts.Seed),
		func(context.Context) (any, int64, error) {
			hm, err := heatmap.FromCost(wl.Cost, wl.Width, wl.Height)
			if err != nil {
				return nil, 0, err
			}
			q, err := hm.Quantize(opts.QuantLevels, opts.Seed)
			if err != nil {
				return nil, 0, err
			}
			return q, quantizedSize(q), nil
		})
	sp2.End()
	if err != nil {
		return nil, err
	}
	quant := qv.(*heatmap.Quantized)
	preprocess := time.Since(preStart)

	// Step 3: GPU downscaling.
	_, sp3 := obs.StartSpan(ctx, "step3_downscale")
	k := opts.K
	if k == 0 {
		k = config.DownscaleFactor(opts.Config)
	}
	cfg := opts.Config
	if opts.NoDownscale {
		k = 1
	}
	if k > 1 {
		cfg, err = opts.Config.Downscale(k)
		if err != nil {
			sp3.End()
			return nil, err
		}
	}
	sp3.SetAttr("k", k)
	root.SetAttr("k", k)
	sp3.End()

	// Step 4: image-plane division.
	_, sp4 := obs.StartSpan(ctx, "step4_partition")
	var groups []partition.Group
	if opts.Division == FineGrained {
		groups, err = partition.Fine(wl.Width, wl.Height, k, opts.ChunkW, opts.ChunkH)
	} else {
		groups, err = partition.Coarse(wl.Width, wl.Height, k, opts.BlockW, opts.BlockH)
	}
	sp4.SetAttr("groups", len(groups))
	sp4.End()
	if err != nil {
		return nil, err
	}
	if opts.SingleGroup {
		groups = groups[:1]
	}

	// Step 5: each group's traced-pixel budget, the same for every
	// strategy: FixedFraction, or Eq. 1 capped at MaxFraction. The draws
	// themselves happen inside the step-6 job, so a retried group redraws
	// the same pixels and a group's wall time covers its selection.
	_, sp5 := obs.StartSpan(ctx, "step5_select")
	budgets := make([]float64, len(groups))
	for gi := range groups {
		budgets[gi] = opts.FixedFraction
		if budgets[gi] == 0 {
			budgets[gi] = sampling.Budget(quant, &groups[gi])
			if opts.MaxFraction > 0 && budgets[gi] > opts.MaxFraction {
				budgets[gi] = opts.MaxFraction
			}
		}
	}
	sp5.End()

	// Step 6: one downscaled simulator instance per group, scheduled on the
	// bounded worker pool. Serial mode is the one-worker pool, so ordering
	// and accounting are uniform; errors aggregate fail-soft across groups,
	// each group retrying per the fault-tolerance policy before it counts
	// as failed.
	workers := 1
	if opts.Parallel {
		workers = runner.PoolSize(opts.Workers)
	}
	job := func(_ context.Context, gi int) (groupOut, error) {
		out, err := simulateGroup(wl, cfg, quant, &groups[gi], budgets[gi], &opts, gi)
		if err != nil {
			return out, fmt.Errorf("group %d: %w", gi, err)
		}
		return out, nil
	}
	if opts.FT.Inject.Enabled() {
		inj, err := faults.NewInjector(opts.FT.Inject)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		job = faults.Wrap(inj, job)
	}
	simStart := time.Now()
	s6ctx, sp6 := obs.StartSpan(ctx, "step6_simulate")
	results, jobErr := runner.MapPolicy(s6ctx, len(groups), runner.Policy{
		Workers:     workers,
		MaxAttempts: opts.FT.Attempts,
		Backoff:     opts.FT.Backoff,
		Timeout:     opts.FT.Timeout,
		JitterSeed:  opts.Seed,
		SpanPrefix:  "group",
	}, job)
	sp6.SetAttr("workers", workers)
	sp6.End()
	elapsed := time.Since(simStart)

	// Grade the fan-out: a failed group is recorded with its pixels and
	// budget so callers can still render it; survivors feed the merge.
	_, sp7 := obs.StartSpan(ctx, "step7_combine")
	total := len(groups)
	runs := make([]GroupRun, total)
	values := make([]combine.GroupValues, 0, total)
	var intervals []combine.GroupIntervals // replicated strategies only
	var failed []int
	for gi := range results {
		r := &results[gi]
		if r.Err != nil {
			runs[gi] = GroupRun{
				Pixels:    groups[gi].NumPixels(),
				Fraction:  budgets[gi],
				WallTime:  r.WallTime,
				QueueTime: r.QueueTime,
				Attempts:  r.Attempts,
				Err:       &GroupError{msg: r.Err.Error(), cause: r.Err},
			}
			failed = append(failed, gi)
			continue
		}
		runs[gi] = r.Value.run
		runs[gi].QueueTime = r.QueueTime
		runs[gi].Attempts = r.Attempts
		values = append(values, r.Value.vals)
		if r.Value.run.Intervals != nil {
			intervals = append(intervals, r.Value.run.Intervals)
		}
	}

	// Degradation decision: a quorum of surviving groups carries the
	// prediction (the stratified-sampling argument of DESIGN.md's failure
	// semantics); below quorum the aggregated failure is the result.
	quorum := opts.FT.quorumFor(total)
	survivors := total - len(failed)
	reg := obs.RegistryFrom(ctx)
	reg.Add(&mGroupFailures, float64(len(failed)))
	if len(failed) > 0 && survivors < quorum {
		err := fmt.Errorf("core: %d/%d groups failed, quorum %d unmet: %w",
			len(failed), total, quorum, jobErr)
		sp7.SetAttr("error", err)
		sp7.End()
		return nil, err
	}

	// Step 7: combine the survivors, re-weighting throughput when groups
	// are missing; replicated strategies' intervals merge alongside.
	predicted, err := combine.MergeDegraded(values, total)
	var mergedIntervals combine.GroupIntervals
	if err == nil && intervals != nil {
		mergedIntervals, err = combine.MergeIntervals(intervals, total, opts.Sampling.Confidence)
	}
	if err != nil {
		sp7.SetAttr("error", err)
		sp7.End()
		return nil, err
	}
	if opts.SingleGroup && k > 1 {
		// One group stands in for all K concurrent GPU slices: total
		// throughput is K times the measured slice.
		predicted[metrics.IPC] *= float64(k)
		if mergedIntervals != nil {
			iv := mergedIntervals[metrics.IPC]
			iv.Mean *= float64(k)
			iv.Low *= float64(k)
			iv.High *= float64(k)
			mergedIntervals[metrics.IPC] = iv
		}
	}
	sp7.SetAttr("survivors", survivors)
	sp7.End()

	res := &Result{
		Predicted:      predicted,
		Intervals:      mergedIntervals,
		Groups:         runs,
		K:              k,
		Quantized:      quant,
		PreprocessTime: preprocess,
	}
	reg.Add(&mPredictions, 1)
	if len(failed) > 0 {
		reg.Add(&mDegraded, 1)
		res.Degraded = &Degradation{
			FailedGroups: failed,
			Quorum:       quorum,
			Survivors:    survivors,
			Total:        total,
		}
	}
	// The deployed pipeline runs the K instances on K separate CPU cores,
	// so the user-visible simulation time is the slowest instance. When
	// the groups actually ran concurrently here, use the measured wall
	// time if it is larger (over-subscribed host).
	for _, r := range runs {
		res.TotalCPUTime += r.WallTime
		if r.WallTime > res.SimWallTime {
			res.SimWallTime = r.WallTime
		}
	}
	if opts.Parallel && elapsed > res.SimWallTime {
		res.SimWallTime = elapsed
	}
	return res, nil
}

// QuantizedKey addresses the step-1/2 artifact: the K-means-quantized
// heatmap is fully determined by the workload digest (which already
// canonicalises scene and resolution), the palette size, and the
// quantization seed.
func QuantizedKey(workload store.Digest, levels int, seed uint64) store.Digest {
	return store.NewKey("quant/v1").Str("workload", workload.String()).
		Int("levels", levels).Uint64("seed", seed).Digest()
}

// quantizedSize approximates a quantized heatmap's resident bytes for the
// store's budget accounting (the per-pixel index array dominates).
func quantizedSize(q *heatmap.Quantized) int64 {
	return int64(len(q.Index))*8 + int64(len(q.Levels))*8 + 64
}

// CacheKey returns the content address of the prediction these options
// describe: every field that influences the predicted values, the group
// outcomes or the degradation decision is canonicalised, after defaults
// are applied so explicit-default and zero-value options share a key.
//
// Parallel, Workers and Store are deliberately excluded: they choose an
// execution strategy, not a result. Group failures are deterministic in
// (injection seed, group index, attempt) regardless of pool size, so the
// same key always names the same prediction — only the recorded wall-clock
// timings vary, and a cached Result reports the timings of the build that
// produced it.
func (o Options) CacheKey() store.Digest {
	o.fillDefaults()
	// The sampling knobs only influence replicated strategies; normalise
	// them away otherwise so irrelevant settings don't split the cache.
	// The growth constant is still written, so that keys keep their bytes.
	growth := roundGrowth
	if !o.Dist.Replicated() {
		o.Sampling = SamplingOptions{}
		o.TargetCIHalfWidth = 0
		growth = 0
	}
	k := store.NewKey("predict/v2")
	k.Str("scene", o.Scene).Int("w", o.Width).Int("h", o.Height).Int("spp", o.SPP)
	o.Config.KeyTo(k)
	k.Int("k", o.K).Bool("nodown", o.NoDownscale).Int("div", int(o.Division))
	k.Int("cw", o.ChunkW).Int("ch", o.ChunkH).Int("bw", o.BlockW).Int("bh", o.BlockH)
	k.Int("q", o.QuantLevels).Int("dist", int(o.Dist))
	k.Int("reps", o.Sampling.Replicates).Float("conf", o.Sampling.Confidence)
	k.Int("rounds", o.Sampling.MaxRounds).Float("growth", growth)
	k.Float("targetci", o.TargetCIHalfWidth)
	k.Float("frac", o.FixedFraction).Float("maxfrac", o.MaxFraction)
	k.Bool("single", o.SingleGroup).Bool("regr", o.Regression)
	k.Uint64("seed", o.Seed)
	k.Int("att", o.FT.Attempts).Dur("backoff", o.FT.Backoff).Dur("timeout", o.FT.Timeout)
	k.Int("quorum", o.FT.Quorum)
	k.Float("ierr", o.FT.Inject.ErrorRate).Float("ipanic", o.FT.Inject.PanicRate)
	k.Float("istrag", o.FT.Inject.StragglerRate).Dur("imean", o.FT.Inject.StragglerMean)
	k.Uint64("iseed", o.FT.Inject.Seed)
	return k.Digest()
}

// ResultSize approximates the resident bytes of a Result as the service
// caches it, for the store's budget accounting: the per-group runs and
// the metric and interval maps. Quantized is not counted: a cached Result
// does not retain it and the store already charges the heatmap once under
// its own key, however many predictions share it.
func ResultSize(r *Result) int64 {
	// A GroupRun is 232 B; map entries are charged with their share of
	// bucket overhead (16 B values in Predicted, 32 B in the interval maps).
	intervals := len(r.Intervals)
	for i := range r.Groups {
		intervals += len(r.Groups[i].Intervals)
	}
	return int64(len(r.Groups))*240 + int64(len(r.Predicted))*32 + int64(intervals)*64 + 256
}

// groupOut is one group job's result: the run record and the group's
// extrapolated metric values (the interval means for replicated
// strategies).
type groupOut struct {
	run  GroupRun
	vals combine.GroupValues
}

// regressionFracs are the Section IV-F regression mode's nested sample
// fractions.
var regressionFracs = [3]float64{0.2, 0.3, 0.4}

// simulateGroup runs one group's step-6 round loop. Each round draws its
// selections from the group's RNG — one Select for the point estimate,
// three nested subsets of one Select for regression, Sampling.Replicates
// disjoint SelectReplicates sub-draws for a replicated strategy — runs the
// simulator once per selection, and extrapolates: linearly, by the
// exponential fit with its linear fallback, or into Student-t intervals
// from the replicate spread. Only a replicated strategy with a CI target
// runs another round, at a roundGrowth-times larger fraction, until
// every metric's relative half-width meets the target, the fraction hits
// MaxFraction or Sampling.MaxRounds is exhausted. All draws derive from
// (Seed, group index, round), so retries and re-runs are byte-identical.
func simulateGroup(wl *rt.Workload, cfg config.Config, quant *heatmap.Quantized,
	g *partition.Group, frac float64, opts *Options, gi int) (groupOut, error) {

	start := time.Now()
	pixels := g.AllPixels()
	run := GroupRun{Pixels: len(pixels)}
	rng := vecmath.NewRNG(opts.Seed).Split(uint64(gi) + 100)
	maxFrac := 1.0
	if opts.MaxFraction > 0 {
		maxFrac = opts.MaxFraction
	}
	for round := 1; ; round++ {
		// Draw.
		var draws []pixelSet
		if opts.Dist.Replicated() {
			sels, err := sampling.SelectReplicates(quant, g, frac, opts.Dist,
				opts.Sampling.Replicates, rng.Split(uint64(round)))
			if err != nil {
				return groupOut{}, err
			}
			for _, sel := range sels {
				draws = append(draws, pixelSetOf(wl.Pixels(), sel.Pixels))
			}
		} else {
			sel, err := sampling.Select(quant, g, frac, opts.Dist, rng)
			if err != nil {
				return groupOut{}, err
			}
			draws = []pixelSet{pixelSetOf(wl.Pixels(), sel.Pixels)}
			if opts.Regression {
				draws = []pixelSet{subsetOf(pixels, draws[0], regressionFracs[0]),
					subsetOf(pixels, draws[0], regressionFracs[1]),
					subsetOf(pixels, draws[0], regressionFracs[2])}
			}
		}

		// Run.
		reps := make([]metrics.Report, len(draws))
		fracs := make([]float64, len(draws))
		selected := 0
		for i, keep := range draws {
			rep, err := gpu.Run(gpu.Job{Cfg: cfg, Source: groupSource{wl: wl, pixels: pixels, selected: keep}})
			if err != nil {
				return groupOut{}, err
			}
			reps[i] = rep
			fracs[i] = float64(keep.n) / float64(len(pixels))
			selected += keep.n
		}
		run.Report = reps[len(reps)-1]
		run.Selected = selected
		run.Fraction = float64(selected) / float64(len(pixels))

		// Extrapolate.
		var vals combine.GroupValues
		var err error
		switch {
		case opts.Regression:
			// The nested subsets overlap: the group traced the largest.
			run.Selected, run.Fraction = draws[2].n, regressionFracs[2]
			vals, err = expRegression(reps)
		case !opts.Dist.Replicated():
			vals, err = combine.Linear(run.Report, run.Fraction)
		default:
			run.Intervals, err = combine.LinearReplicates(reps, fracs, opts.Sampling.Confidence)
			if err != nil {
				return groupOut{}, err
			}
			vals = run.Intervals.Means()
			run.Replicates, run.Rounds = len(draws), round
			run.TargetMet = opts.TargetCIHalfWidth == 0 ||
				run.Intervals.MaxRelHalfWidth() <= opts.TargetCIHalfWidth
			if !run.TargetMet && round < opts.Sampling.MaxRounds && frac < maxFrac {
				frac = min(frac*roundGrowth, maxFrac)
				continue
			}
		}
		run.WallTime = time.Since(start)
		return groupOut{run: run, vals: vals}, err
	}
}

// expRegression extrapolates each metric of the regression mode's three
// runs (Section IV-F) to 100% with an exponential fit, falling back to the
// linear extrapolation of the largest run when the fit rejects the samples.
func expRegression(reps []metrics.Report) (combine.GroupValues, error) {
	vals := make(combine.GroupValues, len(metrics.All()))
	for _, m := range metrics.All() {
		ys := [3]float64{reps[0].Value(m), reps[1].Value(m), reps[2].Value(m)}
		v, err := extrapolate.ExpRegression(regressionFracs, ys)
		if err != nil {
			v = ys[2]
			if m.Absolute() {
				if v, err = extrapolate.Linear(ys[2], regressionFracs[2]); err != nil {
					return nil, err
				}
			}
		}
		vals[m] = v
	}
	return vals, nil
}

// groupSource presents a group's thread list to the simulator without
// materialising it: selected pixels read their traces straight out of the
// workload, filtered pixels share the single two-instruction prologue
// trace. Groups used to copy one []rt.ThreadTrace per simulator call —
// for a full-resolution frame that was the largest per-prediction
// allocation after the workload itself.
type groupSource struct {
	wl       *rt.Workload
	pixels   []int32
	selected pixelSet
}

// Len implements rt.TraceSource.
func (g groupSource) Len() int { return len(g.pixels) }

// At implements rt.TraceSource.
func (g groupSource) At(i int) *rt.ThreadTrace {
	if p := g.pixels[i]; g.selected.has(p) {
		return &g.wl.Traces[p]
	}
	return &filteredTrace
}

// pixelSet is a draw: a set of a frame's pixels, one bit per pixel, so the
// simulator's per-thread membership test is a shift and a mask.
type pixelSet struct {
	bits []uint64
	n    int // members
}

// newPixelSet returns an empty set over a frame of the given pixel count.
func newPixelSet(framePixels int) pixelSet {
	return pixelSet{bits: make([]uint64, (framePixels+63)/64)}
}

// pixelSetOf returns the set of the given pixels of a frame.
func pixelSetOf(framePixels int, pixels []int32) pixelSet {
	set := newPixelSet(framePixels)
	for _, p := range pixels {
		set.add(p)
	}
	return set
}

// has reports whether p is in the set.
func (s *pixelSet) has(p int32) bool { return s.bits[p>>6]&(1<<(p&63)) != 0 }

// add inserts p.
func (s *pixelSet) add(p int32) {
	if !s.has(p) {
		s.bits[p>>6] |= 1 << (p & 63)
		s.n++
	}
}

// subsetOf trims a selection down to fraction f of the group, preferring
// already-selected pixels so the three regression runs nest.
func subsetOf(pixels []int32, selected pixelSet, f float64) pixelSet {
	target := int(f*float64(len(pixels)) + 0.5)
	out := pixelSet{bits: make([]uint64, len(selected.bits))}
	for _, p := range pixels {
		if out.n >= target {
			break
		}
		if selected.has(p) {
			out.add(p)
		}
	}
	for _, p := range pixels {
		if out.n >= target {
			break
		}
		out.add(p)
	}
	return out
}
