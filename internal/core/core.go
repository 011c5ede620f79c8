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
	// adaptive round schedule for the replicated strategies (stratified,
	// rankedset); ignored for the point-estimate strategies.
	Sampling SamplingOptions
	// TargetCIHalfWidth, when positive, enables adaptive sample sizing:
	// each group re-draws a Sampling.Growth-times-larger subset per round
	// until every metric's relative CI half-width (half-width divided by
	// |mean|) is at most this target, bounded by MaxFraction and
	// Sampling.MaxRounds. Requires a replicated strategy.
	TargetCIHalfWidth float64
	// FixedFraction forces each group to trace exactly this fraction
	// (0 = use Eq. 1).
	FixedFraction float64
	// MaxFraction caps the Eq. 1 budget (0 = no cap); the paper uses 0.1
	// to reach 50× speedup on PARK.
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
	// Store is the artifact store the pipeline's cacheable stages (the
	// workload trace via internal/rt, and the step-1/2 quantized heatmap)
	// go through. Nil selects the process-wide store.Default(). Note the
	// workload trace always lands in store.Default() regardless, since it
	// is shared infrastructure beyond this one prediction.
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
	// Growth multiplies the traced fraction between adaptive rounds
	// (default 1.5).
	Growth float64
}

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
// quorum: which groups failed, why, after how many attempts, and what the
// surviving merge was re-weighted against.
type Degradation struct {
	// FailedGroups lists the indices of groups whose instances exhausted
	// their retries, in index order.
	FailedGroups []int
	// GroupErrors maps each failed group index to its final error.
	GroupErrors map[int]error
	// Attempts maps each failed group index to the attempts it consumed.
	Attempts map[int]int
	// Quorum is the surviving-group minimum that was in force.
	Quorum int
	// Survivors counts the groups that contributed to the prediction.
	Survivors int
	// Total is the number of groups the prediction fanned out to.
	Total int
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
	if o.Dist.Replicated() {
		if o.Sampling.Replicates == 0 {
			o.Sampling.Replicates = 5
		}
		if o.Sampling.Confidence == 0 {
			o.Sampling.Confidence = 0.95
		}
		if o.Sampling.MaxRounds == 0 {
			o.Sampling.MaxRounds = 4
		}
		if o.Sampling.Growth == 0 {
			o.Sampling.Growth = 1.5
		}
	}
}

// GroupRun records one group's simulation.
type GroupRun struct {
	// Report is the downscaled simulator's output for the group (for
	// regression mode, the run at the largest fraction).
	Report metrics.Report
	// Fraction is the traced-pixel fraction of the group.
	Fraction float64
	// Pixels and Selected count the group's pixels and traced pixels.
	Pixels   int
	Selected int
	// WallTime is the host time this group's simulation(s) took.
	WallTime time.Duration
	// QueueTime is how long the group waited for a pool worker — nonzero
	// when more groups than workers contend for the pool.
	QueueTime time.Duration
	// Attempts counts how many times the group's instance ran (retries
	// included; zero when the group was cancelled before starting).
	Attempts int
	// Err is the group's final error when it exhausted its retries; such
	// groups carry no Report and are excluded from the merged prediction.
	Err error
	// Intervals holds the group's per-metric confidence intervals when the
	// strategy is replicated (stratified, rankedset); nil otherwise. Report
	// then holds the final round's last replicate, and Fraction/Selected
	// cover the final round's replicates combined.
	Intervals combine.GroupIntervals
	// Replicates is the sub-draw count of the final round (0 for
	// point-estimate strategies).
	Replicates int
	// Rounds counts the adaptive re-draw rounds executed (1 when no CI
	// target was set; 0 for point-estimate strategies).
	Rounds int
	// TargetMet reports whether the CI half-width target was met (always
	// true when no target was set).
	TargetMet bool
}

// Result is a complete Zatel prediction.
type Result struct {
	// Predicted holds the final per-metric prediction.
	Predicted combine.GroupValues
	// Intervals holds the merged per-metric confidence intervals when the
	// strategy is replicated (stratified, rankedset); nil otherwise.
	// Predicted then equals the interval means.
	Intervals combine.GroupIntervals
	// Groups holds the per-group runs.
	Groups []GroupRun
	// K is the downscaling factor used.
	K int
	// Quantized is the heatmap the selection was driven by. PredictContext
	// always sets it; it is nil on a Result that came out of a cache tier
	// (memory, disk or peer), because the predict codec and the service's
	// store entries leave it out: the heatmap is the store's own quant/v1
	// artifact (QuantizedKey), shared by every prediction over one profile.
	Quantized *heatmap.Quantized
	// PreprocessTime covers heatmap generation and quantization.
	PreprocessTime time.Duration
	// SimWallTime is the simulation wall time: the slowest group when
	// groups run concurrently (they occupy separate CPU cores, as the
	// paper's methodology prescribes).
	SimWallTime time.Duration
	// TotalCPUTime sums all group simulation time.
	TotalCPUTime time.Duration
	// Degraded is non-nil when some groups failed but a quorum survived:
	// Predicted was merged from the survivors with fraction re-weighting.
	Degraded *Degradation
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

// Pipeline metrics, exposed through zateld's /metrics (see OPERATIONS.md).
var (
	mPredictions = obs.NewCounter("zatel_predictions_total",
		"pipeline executions completed successfully (degraded included)")
	mDegraded = obs.NewCounter("zatel_predict_degraded_total",
		"predictions that lost groups but met quorum")
	mGroupFailures = obs.NewCounter("zatel_predict_group_failures_total",
		"group instances that exhausted their retries")
)

// Predict runs the Zatel pipeline.
func Predict(opts Options) (*Result, error) {
	return PredictContext(context.Background(), opts)
}

// validate checks every option enum and range up front, before the
// expensive workload build: an invalid division or distribution must not
// cost a full path trace first.
func (o *Options) validate() error {
	if err := o.Config.Validate(); err != nil {
		return err
	}
	if o.FixedFraction < 0 || o.FixedFraction > 1 {
		return fmt.Errorf("core: FixedFraction %v out of [0,1]", o.FixedFraction)
	}
	if o.MaxFraction < 0 || o.MaxFraction > 1 {
		return fmt.Errorf("core: MaxFraction %v out of [0,1]", o.MaxFraction)
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
	if o.Dist.Replicated() {
		if o.Regression {
			return fmt.Errorf("core: Regression and replicated strategy %s are mutually exclusive extrapolation schemes", o.Dist)
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
		if o.Sampling.Growth <= 1 {
			return fmt.Errorf("core: Sampling.Growth %v must exceed 1", o.Sampling.Growth)
		}
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

	// Step 5: representative pixel selection per group. The replicated
	// strategies only compute the budget here — their (possibly adaptive)
	// replicate draws happen inside the step-6 job, interleaved with the
	// simulations they grow from.
	_, sp5 := obs.StartSpan(ctx, "step5_select")
	rootRNG := vecmath.NewRNG(opts.Seed)
	type groupPlan struct {
		pixels   []int32
		selected map[int32]bool
		fraction float64
	}
	plans := make([]groupPlan, len(groups))
	for gi := range groups {
		g := &groups[gi]
		frac := opts.FixedFraction
		if frac == 0 {
			frac = sampling.Budget(quant, g)
			if opts.MaxFraction > 0 && frac > opts.MaxFraction {
				frac = opts.MaxFraction
			}
		}
		if opts.Dist.Replicated() {
			plans[gi] = groupPlan{pixels: g.AllPixels(), fraction: frac}
			continue
		}
		sel, err := sampling.Select(quant, g, frac, opts.Dist, rootRNG.Split(uint64(gi)+100))
		if err != nil {
			sp5.End()
			return nil, fmt.Errorf("core: group %d: %w", gi, err)
		}
		keep := make(map[int32]bool, len(sel.Pixels))
		for _, p := range sel.Pixels {
			keep[p] = true
		}
		plans[gi] = groupPlan{pixels: g.AllPixels(), selected: keep, fraction: sel.Fraction}
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
	type groupOut struct {
		run  GroupRun
		vals combine.GroupValues
	}
	job := func(_ context.Context, gi int) (groupOut, error) {
		if opts.Dist.Replicated() {
			run, err := simulateGroupReplicated(wl, cfg, quant, &groups[gi],
				plans[gi].pixels, plans[gi].fraction, &opts, gi)
			if err != nil {
				return groupOut{}, fmt.Errorf("group %d: %w", gi, err)
			}
			return groupOut{run: run, vals: run.Intervals.Means()}, nil
		}
		run, vals, err := simulateGroup(wl, cfg, plans[gi].pixels,
			plans[gi].selected, plans[gi].fraction, opts.Regression)
		if err != nil {
			return groupOut{}, fmt.Errorf("group %d: %w", gi, err)
		}
		return groupOut{run: run, vals: vals}, nil
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

	// Grade the fan-out: failed groups are recorded with their plan's
	// shape so callers can still render them; survivors feed the merge.
	_, sp7 := obs.StartSpan(ctx, "step7_combine")
	total := len(groups)
	runs := make([]GroupRun, total)
	values := make([]combine.GroupValues, 0, total)
	intervals := make([]combine.GroupIntervals, 0, total)
	var failed []int
	for gi := range results {
		r := &results[gi]
		if r.Err != nil {
			runs[gi] = GroupRun{
				Pixels:    len(plans[gi].pixels),
				Selected:  len(plans[gi].selected),
				Fraction:  plans[gi].fraction,
				WallTime:  r.WallTime,
				QueueTime: r.QueueTime,
				Attempts:  r.Attempts,
				Err:       r.Err,
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
	mGroupFailures.Add(uint64(len(failed)))
	if len(failed) > 0 && survivors < quorum {
		err := fmt.Errorf("core: %d/%d groups failed, quorum %d unmet: %w",
			len(failed), total, quorum, jobErr)
		sp7.SetAttr("error", err)
		sp7.End()
		return nil, err
	}

	// Step 7: combine the survivors, re-weighting throughput when groups
	// are missing.
	predicted, err := combine.MergeDegraded(values, total)
	if err != nil {
		sp7.SetAttr("error", err)
		sp7.End()
		return nil, err
	}
	var mergedIntervals combine.GroupIntervals
	if opts.Dist.Replicated() {
		mergedIntervals, err = combine.MergeIntervals(intervals, total, opts.Sampling.Confidence)
		if err != nil {
			sp7.SetAttr("error", err)
			sp7.End()
			return nil, err
		}
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
	mPredictions.Inc()
	if len(failed) > 0 {
		mDegraded.Inc()
		deg := &Degradation{
			FailedGroups: failed,
			GroupErrors:  make(map[int]error, len(failed)),
			Attempts:     make(map[int]int, len(failed)),
			Quorum:       quorum,
			Survivors:    survivors,
			Total:        total,
		}
		for _, gi := range failed {
			deg.GroupErrors[gi] = runs[gi].Err
			deg.Attempts[gi] = runs[gi].Attempts
		}
		res.Degraded = deg
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
	if !o.Dist.Replicated() {
		o.Sampling = SamplingOptions{}
		o.TargetCIHalfWidth = 0
	}
	k := store.NewKey("predict/v2")
	k.Str("scene", o.Scene).Int("w", o.Width).Int("h", o.Height).Int("spp", o.SPP)
	o.Config.KeyTo(k)
	k.Int("k", o.K).Bool("nodown", o.NoDownscale).Int("div", int(o.Division))
	k.Int("cw", o.ChunkW).Int("ch", o.ChunkH).Int("bw", o.BlockW).Int("bh", o.BlockH)
	k.Int("q", o.QuantLevels).Int("dist", int(o.Dist))
	k.Int("reps", o.Sampling.Replicates).Float("conf", o.Sampling.Confidence)
	k.Int("rounds", o.Sampling.MaxRounds).Float("growth", o.Sampling.Growth)
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

// simulateGroup runs one group's simulator instance(s) and produces its
// extrapolated metric values.
func simulateGroup(wl *rt.Workload, cfg config.Config, pixels []int32,
	selected map[int32]bool, fraction float64, regression bool) (GroupRun, combine.GroupValues, error) {

	run := GroupRun{Pixels: len(pixels), Selected: len(selected), Fraction: fraction}
	start := time.Now()

	if !regression {
		rep, err := gpu.Run(gpu.Job{Cfg: cfg, Source: groupSource{wl: wl, pixels: pixels, selected: selected}})
		if err != nil {
			return run, nil, err
		}
		run.Report = rep
		run.WallTime = time.Since(start)
		vals, err := combine.Linear(rep, fraction)
		return run, vals, err
	}

	// Regression mode (Section IV-F): simulate the group at 20/30/40% and
	// extrapolate each metric to 100% with an exponential fit, falling
	// back to linear extrapolation of the 40% run when the fit rejects
	// the samples.
	fracs := [3]float64{0.2, 0.3, 0.4}
	var reps [3]metrics.Report
	var sub map[int32]bool
	for i, f := range fracs {
		sub = subsetOf(pixels, selected, f)
		rep, err := gpu.Run(gpu.Job{Cfg: cfg, Source: groupSource{wl: wl, pixels: pixels, selected: sub}})
		if err != nil {
			return run, nil, err
		}
		reps[i] = rep
	}
	run.Report = reps[2]
	run.Fraction = fracs[2]
	// Report the actual subset size of the 40% run: subsetOf rounds, so
	// recomputing the count by truncation here could disagree by a pixel.
	run.Selected = len(sub)
	run.WallTime = time.Since(start)

	vals := make(combine.GroupValues, len(metrics.All()))
	for _, m := range metrics.All() {
		ys := [3]float64{reps[0].Value(m), reps[1].Value(m), reps[2].Value(m)}
		v, err := extrapolate.ExpRegression([3]float64{fracs[0], fracs[1], fracs[2]}, ys)
		if err != nil {
			// Fall back to the baseline extrapolation of the 40% run.
			if m.Absolute() {
				v, err = extrapolate.Linear(ys[2], fracs[2])
				if err != nil {
					return run, nil, err
				}
			} else {
				v = ys[2]
			}
		}
		vals[m] = v
	}
	return run, vals, nil
}

// simulateGroupReplicated runs one group under a replicated strategy: each
// round draws Sampling.Replicates disjoint sub-selections, simulates every
// replicate independently, extrapolates each by its own realized fraction,
// and builds the Student-t interval from the replicate spread. With a CI
// target set, rounds repeat with a Growth-times-larger fraction until every
// metric's relative half-width meets the target, the fraction hits its cap,
// or MaxRounds is exhausted. All draws derive from (seed, group index,
// round), so retries and re-runs are byte-identical.
func simulateGroupReplicated(wl *rt.Workload, cfg config.Config, quant *heatmap.Quantized,
	g *partition.Group, pixels []int32, frac0 float64, opts *Options, gi int) (GroupRun, error) {

	run := GroupRun{Pixels: len(pixels)}
	start := time.Now()
	sp := opts.Sampling
	maxFrac := 1.0
	if opts.MaxFraction > 0 {
		maxFrac = opts.MaxFraction
	}
	frac := frac0
	if frac > maxFrac {
		frac = maxFrac
	}
	groupRNG := vecmath.NewRNG(opts.Seed).Split(uint64(gi) + 100)
	for round := 1; ; round++ {
		sels, err := sampling.SelectReplicates(quant, g, frac, opts.Dist,
			sp.Replicates, groupRNG.Split(uint64(round)))
		if err != nil {
			return run, err
		}
		reps := make([]metrics.Report, len(sels))
		fracs := make([]float64, len(sels))
		selected := 0
		for i, sel := range sels {
			keep := make(map[int32]bool, len(sel.Pixels))
			for _, p := range sel.Pixels {
				keep[p] = true
			}
			rep, err := gpu.Run(gpu.Job{Cfg: cfg, Source: groupSource{wl: wl, pixels: pixels, selected: keep}})
			if err != nil {
				return run, err
			}
			reps[i] = rep
			fracs[i] = sel.Fraction
			selected += len(sel.Pixels)
		}
		ivs, err := combine.LinearReplicates(reps, fracs, sp.Confidence)
		if err != nil {
			return run, err
		}
		run.Report = reps[len(reps)-1]
		run.Fraction = float64(selected) / float64(len(pixels))
		run.Selected = selected
		run.Intervals = ivs
		run.Replicates = len(sels)
		run.Rounds = round
		run.TargetMet = opts.TargetCIHalfWidth == 0 ||
			ivs.MaxRelHalfWidth() <= opts.TargetCIHalfWidth
		if run.TargetMet || round >= sp.MaxRounds || frac >= maxFrac {
			break
		}
		frac *= sp.Growth
		if frac > maxFrac {
			frac = maxFrac
		}
	}
	run.WallTime = time.Since(start)
	return run, nil
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
	selected map[int32]bool
}

// Len implements rt.TraceSource.
func (g groupSource) Len() int { return len(g.pixels) }

// At implements rt.TraceSource.
func (g groupSource) At(i int) *rt.ThreadTrace {
	if p := g.pixels[i]; g.selected[p] {
		return &g.wl.Traces[p]
	}
	return &filteredTrace
}

// subsetOf trims a selection down to fraction f of the group, preferring
// already-selected pixels so the three regression runs nest.
func subsetOf(pixels []int32, selected map[int32]bool, f float64) map[int32]bool {
	target := int(f*float64(len(pixels)) + 0.5)
	out := make(map[int32]bool, target)
	for _, p := range pixels {
		if len(out) >= target {
			break
		}
		if selected[p] {
			out[p] = true
		}
	}
	if len(out) < target {
		for _, p := range pixels {
			if len(out) >= target {
				break
			}
			if !out[p] {
				out[p] = true
			}
		}
	}
	return out
}
