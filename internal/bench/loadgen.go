package bench

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one request as the load generator saw it.
type sample struct {
	// Latency runs from the instant the request was due (open loop) or sent
	// (closed loop) until its response was read.
	Latency time.Duration
	// Service runs from the actual send, so it excludes generator lateness.
	Service time.Duration
	// Late is how long after its due instant the request was sent.
	Late time.Duration
	outcome
}

// outcome is what the caller-supplied request function reports back.
type outcome struct {
	Cache   string // X-Zatel-Cache of the response
	OnOwner bool   // the request landed on its key's ring owner
	Bytes   int
	Traced  bool // the request ran inside a harness span
	Refused bool // 503: admission control shed it
	Failed  bool // any other error, or a wrong prediction
}

// openLoop issues n requests on a fixed schedule, request i due at
// start + i*interval, over the given number of workers (connections). A
// worker that is free takes the next request, waits until it is due and sends
// it; a request whose turn comes late is sent at once. Latency is always
// counted from the due instant, so a stall shows up in every request it
// delayed, not only in the one that stalled. It returns the samples and the
// wall time from the first due instant to the last completion.
//
// Every free worker waits at the same time, each on its own processor (see
// wallClock.Sleep: the wait keeps the processor). With no more workers than
// processors no processor ever goes idle, and a request is served on the
// processor its worker just left: the worker blocks reading the response, and
// the first thing its processor finds to run is whatever the request made
// runnable. Letting a processor idle between requests instead measures how
// long the host takes to wake a halted virtual CPU, which on a shared machine
// drifts by a fifth from one minute to the next.
func openLoop(clk clock, workers, n int, interval time.Duration, do func(worker, i int) outcome) ([]sample, time.Duration) {
	samples := make([]sample, n)
	start := clk.Now()
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := start + time.Duration(i)*interval
				if wait := due - clk.Now(); wait > 0 {
					clk.Sleep(wait)
				}
				sent := clk.Now()
				out := do(w, i)
				done := clk.Now()
				samples[i] = sample{Latency: done - due, Service: done - sent, Late: sent - due, outcome: out}
			}
		}()
	}
	wg.Wait()
	return samples, clk.Now() - start
}

// closedLoop runs the given number of clients for d: each sends its next
// request only when the previous one has completed. It returns the samples
// and the wall time from the first send to the last completion.
func closedLoop(clk clock, clients int, d time.Duration, do func(client, i int) outcome) ([]sample, time.Duration) {
	perClient := make([][]sample, clients)
	start := clk.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; clk.Now()-start < d; i++ {
				sent := clk.Now()
				out := do(c, i)
				took := clk.Now() - sent
				perClient[c] = append(perClient[c], sample{Latency: took, Service: took, outcome: out})
			}
		}()
	}
	wg.Wait()
	elapsed := clk.Now() - start
	var all []sample
	for _, s := range perClient {
		all = append(all, s...)
	}
	return all, elapsed
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1)^s.
// math/rand's Zipf needs s > 1; the workload wants exactly s = 1.
type zipf struct {
	cdf []float64
	rng *rand.Rand
}

func newZipf(rng *rand.Rand, n int) *zipf {
	z := &zipf{cdf: make([]float64, n), rng: rng}
	var total float64
	for i := range z.cdf {
		total += 1 / float64(i+1)
		z.cdf[i] = total
	}
	for i := range z.cdf {
		z.cdf[i] /= total
	}
	return z
}

func (z *zipf) next() int {
	return min(sort.SearchFloat64s(z.cdf, z.rng.Float64()), len(z.cdf)-1)
}
