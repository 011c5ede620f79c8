package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// spanID names one recorded span; noSpan is both "no parent" and what a
// nil tracer hands out.
type spanID int32

const noSpan spanID = -1

// span is one harness-owned interval around a call into a layer's public
// function. Spans of one operation share Req; Parent is the span that
// caused this one. N carries the one count the layer metrics need at that
// boundary (kept threads of a gpu.Run, bytes of an encoded artifact).
type span struct {
	ID     spanID        `json:"id"`
	Parent spanID        `json:"parent"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	N      int64         `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// tracing-off state: start and end are no-ops, so the measured code path is
// the same with and without tracing apart from the span bookkeeping itself.
type tracer struct {
	epoch time.Duration
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: now()} }

// on returns the tracer for operation i of pass n, which is traced when
// i+n is odd, and nil otherwise. A traced run thus times every input both
// ways once it has made two passes, and neighbouring inputs one way each in
// a single pass; obs.trace_overhead_pct compares the two halves.
func (t *tracer) on(i, n int) *tracer {
	if (i+n)%2 == 0 {
		return nil
	}
	return t
}

func (t *tracer) start(name string, parent spanID, req int) spanID {
	if t == nil {
		return noSpan
	}
	at := now() - t.epoch
	t.mu.Lock()
	id := spanID(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: at, End: -1})
	t.mu.Unlock()
	return id
}

// end closes the span and returns how long it lasted.
func (t *tracer) end(id spanID, n int64) time.Duration {
	if t == nil || id == noSpan {
		return 0
	}
	at := now() - t.epoch
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = at
	t.spans[id].N = n
	return t.spans[id].dur()
}

// finished returns every span that has ended.
func (t *tracer) finished() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// named returns the durations of every finished span called name.
func named(spans []span, names ...string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		for _, n := range names {
			if s.Name == n {
				out = append(out, s.dur())
			}
		}
	}
	return out
}

// covered returns how much of [lo, hi] the given intervals cover: the
// length of their union clipped to the window. Children that ran in
// parallel therefore count once.
func covered(lo, hi time.Duration, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	at := lo
	for _, k := range kids {
		s, e := max(k.Start, at), min(k.End, hi)
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// selfRow is one line of the self-time table.
type selfRow struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// selfTimes folds the spans by name. A span's self time is its duration
// minus the part of that interval its child spans cover.
func selfTimes(spans []span) []selfRow {
	kids := make(map[spanID][]span)
	for _, s := range spans {
		if s.Parent != noSpan {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	rows := make(map[string]*selfRow)
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.Total += s.dur()
		r.Self += s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

func printSelfTimes(w io.Writer, spans []span) {
	fmt.Fprintf(w, "\nspans by name (self = span - children)\n")
	fmt.Fprintf(w, "  %-32s %8s %12s %12s\n", "name", "count", "total_ms", "self_ms")
	for _, r := range selfTimes(spans) {
		fmt.Fprintf(w, "  %-32s %8d %12.3f %12.3f\n", r.Name, r.Count, ms(r.Total), ms(r.Self))
	}
}

// writeSpans writes every finished span as one JSON array.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
