package obs

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"
)

// latencyBuckets are the histogram upper bounds in seconds, spanning the
// range a prediction can take: a warm store hit lands in the sub-millisecond
// buckets, a cold 256×256 regression run in the tens of seconds.
var latencyBuckets = []float64{
	.0005, .001, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram is a fixed-bucket latency histogram with lock-free observation,
// exposed in Prometheus text format. Counts per bucket are non-cumulative
// internally and summed cumulatively at exposition time, as the format
// requires. A Registry creates one per labelled series, or exposes one its
// owner keeps (a cluster's peer-fetch latencies, see SetHistogram).
type Histogram struct {
	counts []atomic.Uint64 // len(latencyBuckets)+1; last is +Inf
	count  atomic.Uint64
	sumNs  atomic.Int64
}

// NewHistogram returns an empty histogram over the standard latency buckets.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]atomic.Uint64, len(latencyBuckets)+1)}
}

// ObserveValue records a unitless value (e.g. a relative CI half-width)
// against the same bucket bounds, read as plain ratios rather than seconds.
func (h *Histogram) ObserveValue(v float64) {
	h.Observe(time.Duration(v * 1e9))
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < len(latencyBuckets) && s > latencyBuckets[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
}

// writeProm emits the histogram's series under the family name with the
// series' rendered label pairs, e.g. `stage="build"`; an empty label emits
// only the le label.
func (h *Histogram) writeProm(w io.Writer, name, label string) {
	sep := ""
	if label != "" {
		sep = ","
	}
	var cum uint64
	for i, ub := range latencyBuckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, label, sep, formatBound(ub), cum)
	}
	cum += h.counts[len(latencyBuckets)].Load()
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, label, sep, cum)
	if label != "" {
		label = "{" + label + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %g\n", name, label, float64(h.sumNs.Load())/1e9)
	fmt.Fprintf(w, "%s_count%s %d\n", name, label, h.count.Load())
}

func formatBound(ub float64) string {
	if ub == math.Trunc(ub) {
		return fmt.Sprintf("%g", ub)
	}
	return fmt.Sprintf("%v", ub)
}
