package core

import (
	"context"
	"time"

	"zatel/internal/config"
	"zatel/internal/gpu"
	"zatel/internal/metrics"
	"zatel/internal/rt"
	"zatel/internal/store"
)

// Reference runs the full workload on the full GPU configuration — the
// ground truth Zatel's predictions are evaluated against. Threads launch in
// natural row-major warp order. It is ReferenceContext on the process-wide
// store.
func Reference(cfgFull config.Config, sceneName string, width, height, spp int) (metrics.Report, error) {
	return ReferenceContext(context.Background(),
		Options{Config: cfgFull, Scene: sceneName, Width: width, Height: height, SPP: spp})
}

// ReferenceContext runs the frame opts names (Scene, Width, Height, SPP) in
// full on opts.Config. The report is an artifact of opts' store, kind
// core.reference/v1 under ReferenceKey, so the evaluation's many sweep
// points sharing one ground truth pay for it once, concurrent misses
// coalesce onto one simulation, and a disk tier keeps it across processes.
// The recorded WallTime is always that of the simulation that produced the
// report — after a disk or peer hit, another process's (see
// ReferenceLoaded).
//
// ctx cancellation interrupts the workload build between rows and is
// checked again before the full simulation starts (the cycle-level replay
// itself runs to completion once launched).
func ReferenceContext(ctx context.Context, opts Options) (metrics.Report, error) {
	rep, _, err := ReferenceLoaded(ctx, opts)
	return rep, err
}

// ReferenceLoaded is ReferenceContext that also reports whether the report
// was decoded from a disk or peer frame, by this lookup or an earlier one
// that left it resident. Its WallTime was then measured by another process,
// perhaps on another host or under other load, so a speedup against it
// compares runs that did not share a machine state.
func ReferenceLoaded(ctx context.Context, opts Options) (rep metrics.Report, loaded bool, err error) {
	key := ReferenceKey(opts.Config, rt.WorkloadKey(opts.Scene, opts.Width, opts.Height, opts.SPP))
	v, _, err := opts.artifactStore().GetOrBuild(ctx, key, func(ctx context.Context) (any, int64, error) {
		wl, err := rt.CachedWorkloadContext(ctx, opts.Scene, opts.Width, opts.Height, opts.SPP)
		if err != nil {
			return nil, 0, err
		}
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		start := time.Now()
		rep, err := gpu.Run(gpu.Job{Cfg: opts.Config, Traces: wl.Traces})
		if err != nil {
			return nil, 0, err
		}
		rep.WallTime = time.Since(start)
		return rep, referenceSize, nil
	})
	if err != nil {
		return metrics.Report{}, false, err
	}
	if r, ok := v.(loadedReport); ok {
		return metrics.Report(r), true, nil
	}
	return v.(metrics.Report), false, nil
}

// ReferenceKey is the content address of a reference run: the full
// configuration and the digest of the workload it replays.
func ReferenceKey(cfgFull config.Config, workload store.Digest) store.Digest {
	return cfgFull.KeyTo(store.NewKey("reference/v1").Str("workload", workload.String())).Digest()
}

// Errors compares a prediction against a reference report and returns the
// per-metric absolute errors.
func (r *Result) Errors(ref metrics.Report) map[metrics.Metric]float64 {
	out := make(map[metrics.Metric]float64, len(metrics.All()))
	for _, m := range metrics.All() {
		out[m] = metrics.AbsErr(r.Predicted[m], ref.Value(m))
	}
	return out
}

// Speedup returns the simulation-time speedup of this prediction relative
// to the reference full simulation: reference wall time divided by Zatel's
// preprocessing plus (parallel) simulation wall time.
func (r *Result) Speedup(ref metrics.Report) float64 {
	own := r.PreprocessTime + r.SimWallTime
	if own <= 0 {
		return 0
	}
	return float64(ref.WallTime) / float64(own)
}
