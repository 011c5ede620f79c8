// Package runner provides the bounded worker-pool job scheduler every
// concurrent part of the repository runs on: core.Predict's per-group
// simulator fan-out and the experiment grid drivers all submit their
// independent jobs here instead of hand-rolling sync.WaitGroup loops.
//
// Zatel's methodology (Section III-F) assumes K downscaled simulator
// instances occupy K CPU cores concurrently; the experiment suite likewise
// amortises many short independent (scene × parameter) runs. The pool makes
// that concurrency uniform and observable:
//
//   - bounded: at most Workers jobs run at once (default GOMAXPROCS),
//   - deterministic: results are returned in submission order, so output
//     bytes never depend on scheduling,
//   - accounted: every job records queue wait, execution wall time and how
//     many attempts it took,
//   - fail-soft: one failing job does not abort the grid — all errors are
//     collected and returned aggregated, alongside every completed result,
//   - fault-tolerant: MapPolicy retries failing jobs with exponential
//     backoff and deterministic seeded jitter, under per-attempt deadlines,
//   - cancellable: a context cancels jobs that have not started.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"zatel/internal/obs"
	"zatel/internal/vecmath"
)

// Pool metrics. MapPolicy counts into the registry its context carries
// (zateld attaches its server's to every build) and counts nothing without
// one. Metrics lists them for that registry's declarations.
var (
	mJobs     = obs.Desc{Name: "zatel_runner_jobs_total", Type: "counter", Help: "jobs executed on a worker pool, success or failure"}
	mRetries  = obs.Desc{Name: "zatel_runner_retries_total", Type: "counter", Help: "extra attempts beyond each job's first"}
	mFailures = obs.Desc{Name: "zatel_runner_job_failures_total", Type: "counter", Help: "jobs that failed after all attempts"}
	mActive   = obs.Desc{Name: "zatel_runner_active_workers", Type: "gauge", Help: "workers executing a job right now"}
	Metrics   = []obs.Desc{mJobs, mRetries, mFailures, mActive}
)

// Result records one job's outcome and timing.
type Result[T any] struct {
	// Index is the job's submission index; Map returns results sorted by it.
	Index int
	// Value is fn's return value (zero when Err != nil).
	Value T
	// Err is the job's final error after all attempts, the recovered panic,
	// or the context error for jobs cancelled before they started.
	Err error
	// QueueTime is how long the job waited between submission and the
	// moment a worker picked it up.
	QueueTime time.Duration
	// WallTime is the job's worker occupancy: all attempts plus the backoff
	// waits between them (zero for cancelled jobs).
	WallTime time.Duration
	// Attempts counts how many times the job ran (zero for jobs cancelled
	// before they started).
	Attempts int
}

// JobError ties a failed job's index to its cause; Map aggregates these
// with errors.Join so callers can both print everything and errors.As their
// way back to individual indices.
type JobError struct {
	Index int
	Err   error
}

// Error implements error.
func (e *JobError) Error() string { return fmt.Sprintf("job %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying cause.
func (e *JobError) Unwrap() error { return e.Err }

// PoolSize resolves a requested worker count: values <= 0 select
// runtime.GOMAXPROCS(0), the paper's one-instance-per-core deployment.
func PoolSize(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Policy configures MapPolicy's scheduling and per-job fault tolerance.
// The zero value reproduces Map: a GOMAXPROCS-sized pool, one attempt per
// job, no deadline.
type Policy struct {
	// Workers bounds the pool (see PoolSize).
	Workers int
	// MaxAttempts is the total number of times a failing job may run
	// (values <= 1 mean no retries).
	MaxAttempts int
	// Backoff is the wait before the second attempt; it doubles for every
	// further attempt. 0 retries immediately.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth (0 = no cap).
	MaxBackoff time.Duration
	// JitterSeed roots the deterministic backoff jitter: each wait is
	// stretched by up to 50%, keyed by (JitterSeed, index, attempt), so
	// retries de-synchronise identically on every run instead of drawing
	// from wall-clock randomness.
	JitterSeed uint64
	// Timeout is the per-attempt deadline, enforced through the context the
	// attempt receives (0 = none). Jobs must honour their ctx for the
	// deadline to interrupt them; the attempt is failed and retried either
	// way once it returns.
	Timeout time.Duration
	// SpanPrefix, when the caller's context carries an obs.Tracer, records
	// one span per job named "<prefix>[<index>]" — each worker on its own
	// trace lane — with nested "attempt" spans per try. Empty disables job
	// spans even when a tracer is present.
	SpanPrefix string
}

// backoffDelay computes the wait between attempt and attempt+1 of job
// index: Backoff doubled per completed attempt, capped at MaxBackoff, plus
// up to 50% seeded jitter.
func (p Policy) backoffDelay(index, attempt int) time.Duration {
	if p.Backoff <= 0 {
		return 0
	}
	exp := attempt - 1
	if exp > 20 { // 2^20 * Backoff is already beyond any sane deadline
		exp = 20
	}
	d := p.Backoff << uint(exp)
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	rng := vecmath.NewRNG(p.JitterSeed).Split(uint64(index)).Split(uint64(attempt))
	return d + time.Duration(rng.Float64()*0.5*float64(d))
}

// Map runs fn(ctx, i) for every i in [0, n) on a pool of at most
// PoolSize(workers) goroutines and returns the n results in submission
// order. It always returns the full result slice; the returned error is the
// errors.Join aggregation of every per-job failure (nil when all jobs
// succeeded). Cancelling ctx stops unstarted jobs, which complete with
// ctx's error; jobs already running are expected to honour ctx themselves.
// A panicking job is captured as that job's error rather than crashing the
// pool.
func Map[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, index int) (T, error)) ([]Result[T], error) {
	return MapPolicy(ctx, n, Policy{Workers: workers}, fn)
}

// MapPolicy is Map with per-job fault tolerance: each failing job is
// retried up to Policy.MaxAttempts times under Policy.Timeout per-attempt
// deadlines, with exponential backoff and seeded jitter between attempts.
// Retries happen in-place on the job's worker, so result ordering stays
// deterministic by submission index. Parent-context cancellation stops a
// job's retries immediately.
func MapPolicy[T any](ctx context.Context, n int, p Policy, fn func(ctx context.Context, index int) (T, error)) ([]Result[T], error) {
	if n < 0 {
		return nil, fmt.Errorf("runner: negative job count %d", n)
	}
	if fn == nil {
		return nil, errors.New("runner: nil job function")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result[T], n)
	for i := range results {
		results[i].Index = i
	}
	if n == 0 {
		return results, nil
	}

	workers := PoolSize(p.Workers)
	if workers > n {
		workers = n
	}

	submitted := time.Now()
	jobs := make(chan int)
	var wg sync.WaitGroup
	tracer := obs.FromContext(ctx)
	tracing := p.SpanPrefix != "" && tracer != nil
	reg := obs.RegistryFrom(ctx)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		var lane int64
		if tracing {
			lane = tracer.Lane(fmt.Sprintf("worker %d", w))
		}
		go func() {
			defer wg.Done()
			for i := range jobs {
				r := &results[i]
				r.QueueTime = time.Since(submitted)
				if err := ctx.Err(); err != nil {
					r.Err = err
					continue
				}
				jctx, sp := ctx, (*obs.Span)(nil)
				if tracing {
					jctx, sp = obs.StartSpan(ctx, fmt.Sprintf("%s[%d]", p.SpanPrefix, i), obs.InLane(lane))
					sp.SetAttr("queue_us", r.QueueTime.Microseconds())
				}
				reg.Add(&mActive, 1)
				start := time.Now()
				r.Value, r.Attempts, r.Err = runAttempts(jctx, p, i, fn)
				r.WallTime = time.Since(start)
				reg.Add(&mActive, -1)
				reg.Add(&mJobs, 1)
				reg.Add(&mRetries, float64(r.Attempts-1))
				sp.SetAttr("attempts", r.Attempts)
				if r.Err != nil {
					reg.Add(&mFailures, 1)
					sp.SetAttr("error", r.Err)
				}
				sp.End()
			}
		}()
	}

feed:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			// Everything not yet handed to a worker is cancelled; the
			// workers themselves mark the jobs they already hold.
			for j := i; j < n; j++ {
				results[j].Err = ctx.Err()
			}
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	var errs []error
	for i := range results {
		if results[i].Err != nil {
			errs = append(errs, &JobError{Index: i, Err: results[i].Err})
		}
	}
	return results, errors.Join(errs...)
}

// runAttempts drives one job through the policy's retry loop and reports
// the value, the number of attempts consumed, and the final error (nil on
// success). The retry loop stops early on parent-context cancellation; on
// failure the returned value is zero.
func runAttempts[T any](ctx context.Context, p Policy, i int, fn func(context.Context, int) (T, error)) (T, int, error) {
	max := p.MaxAttempts
	if max < 1 {
		max = 1
	}
	var zero T
	for attempt := 1; ; attempt++ {
		attemptCtx, cancel := ctx, context.CancelFunc(func() {})
		if p.Timeout > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, p.Timeout)
		}
		var asp *obs.Span
		if p.SpanPrefix != "" {
			attemptCtx, asp = obs.StartSpan(attemptCtx, "attempt")
			asp.SetAttr("n", attempt)
		}
		v, err := runJob(attemptCtx, i, fn)
		timedOut := attemptCtx.Err() != nil && ctx.Err() == nil
		if err != nil {
			asp.SetAttr("error", err)
		}
		asp.End()
		cancel()
		if err == nil {
			return v, attempt, nil
		}
		if timedOut && errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("runner: job %d attempt %d exceeded %v deadline: %w",
				i, attempt, p.Timeout, err)
		}
		if attempt >= max || ctx.Err() != nil {
			return zero, attempt, err
		}
		if !sleep(ctx, p.backoffDelay(i, attempt)) {
			// Cancelled during backoff: the consumed attempts stand, the
			// job keeps its real error rather than the context's.
			return zero, attempt, err
		}
	}
}

// runJob invokes fn with panic capture so one bad job cannot take down the
// whole pool (fail-soft, like any other job error).
func runJob[T any](ctx context.Context, i int, fn func(context.Context, int) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("runner: job %d panicked: %v", i, r)
		}
	}()
	return fn(ctx, i)
}

// sleep waits d honouring ctx; it reports false when ctx fired first.
func sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Totals sums the per-job execution times and reports the slowest single
// job — the two numbers behind the serial-vs-parallel wall-time semantics:
// cpu is what a serial execution would cost, slowest is the wall-time floor
// of a perfectly parallel one.
func Totals[T any](rs []Result[T]) (cpu, slowest time.Duration) {
	for i := range rs {
		cpu += rs[i].WallTime
		if rs[i].WallTime > slowest {
			slowest = rs[i].WallTime
		}
	}
	return cpu, slowest
}
