// Package obs is the repository's observability layer: span tracing,
// per-owner Prometheus metric registries, structured-logging setup, and
// request-ID propagation — all dependency-free (stdlib only),
// matching the paper's own premise that you cannot optimize what you cannot
// attribute time to.
//
// The three concerns compose but do not require each other:
//
//   - Tracing. A Tracer travels on a context.Context (WithTracer /
//     FromContext); instrumentation sites call StartSpan unconditionally and
//     pay nothing when no tracer is attached (nil-span methods no-op). The
//     recorded spans export as Chrome trace_event JSON, loadable in
//     chrome://tracing or https://ui.perfetto.dev.
//   - Metrics. A Registry holds the families its owner declares (Desc:
//     name, type, help, labels) and is the repository's one Prometheus
//     text writer. zateld keeps one per server and attaches it to each
//     build's context (WithRegistry), so the pipeline counts into the
//     server that did the work; without one (the CLIs) counting is a nil
//     check, as StartSpan is without a tracer.
//   - Logging. SetupLogger configures the process-default log/slog logger
//     (level + text/JSON handler); WithRequestID/RequestID thread the
//     per-request correlation ID that zateld also returns as
//     X-Zatel-Request-Id and embeds in error bodies and trace exports.
//
// Span-name taxonomy, lane semantics and the no-third-party-deps rationale
// are documented in DESIGN.md ("Observability").
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
	requestIDKey
	registryKey
)

// Tracer records a tree of timed spans for one traced unit of work (a CLI
// invocation, one zateld request's build). It is safe for concurrent use:
// pool workers record spans from many goroutines at once.
//
// Lanes map to Chrome trace "threads" (tid): spans in the same lane nest by
// time containment, spans in different lanes render as parallel tracks.
// Lane 0 is the caller's track; worker pools allocate one lane per worker
// with Lane.
type Tracer struct {
	clock func() time.Time // test hook; time.Now outside tests

	mu       sync.Mutex
	epoch    time.Time
	spans    []SpanRecord
	meta     map[string]string
	lanes    map[int64]string
	nextID   int64
	nextLane int64
}

// NewTracer returns an empty tracer whose span timestamps are offsets from
// this call.
func NewTracer() *Tracer {
	t := &Tracer{clock: time.Now, meta: map[string]string{}, lanes: map[int64]string{}}
	t.epoch = t.clock()
	return t
}

// SpanRecord is one finished span as exported and as returned to tests.
type SpanRecord struct {
	// Name is the span name (see DESIGN.md for the taxonomy).
	Name string
	// ID and Parent identify the span and its enclosing span (Parent 0 =
	// root).
	ID, Parent int64
	// Lane is the Chrome-trace thread the span renders on.
	Lane int64
	// Start is the offset from the tracer's epoch; Dur the span length.
	Start, Dur time.Duration
	// Attrs are the span's key/value annotations.
	Attrs map[string]string
}

// SetMeta attaches trace-level metadata (e.g. the request ID) exported in
// the Chrome JSON "metadata" object.
func (t *Tracer) SetMeta(key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.meta[key] = value
	t.mu.Unlock()
}

// Lane allocates a fresh lane (Chrome tid) with a display name; worker
// pools call it once per worker so parallel jobs render as parallel tracks.
func (t *Tracer) Lane(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.nextLane++
	lane := t.nextLane
	t.lanes[lane] = name
	t.mu.Unlock()
	return lane
}

// Snapshot returns a copy of the spans recorded so far, ordered by start
// time (ties by ID, i.e. creation order).
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]SpanRecord, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Durations sums the recorded span time by span name — the bridge from
// traces to metrics: zateld feeds the per-step sums into its latency
// histograms, tests assert the step spans cover the prediction wall time.
func (t *Tracer) Durations() map[string]time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]time.Duration, len(t.spans))
	for i := range t.spans {
		out[t.spans[i].Name] += t.spans[i].Dur
	}
	return out
}

// Span is one live timed region. The zero/nil span is valid and inert, so
// instrumentation sites never check whether tracing is enabled.
type Span struct {
	tracer *Tracer
	record SpanRecord
	start  time.Time

	mu    sync.Mutex
	ended bool
}

// WithTracer attaches tr to the context; StartSpan below it records there.
func WithTracer(ctx context.Context, tr *Tracer) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey, tr)
}

// FromContext returns the attached tracer, or nil when the context carries
// none (every obs entry point accepts that nil).
func FromContext(ctx context.Context) *Tracer {
	if ctx == nil {
		return nil
	}
	tr, _ := ctx.Value(tracerKey).(*Tracer)
	return tr
}

// SpanOption adjusts StartSpan.
type SpanOption func(*Span)

// InLane places the span on an explicit lane (see Tracer.Lane) instead of
// inheriting the parent span's.
func InLane(lane int64) SpanOption {
	return func(s *Span) { s.record.Lane = lane }
}

// StartSpan opens a span named name under the context's current span and
// returns the child context carrying it. Without a tracer on ctx it returns
// (ctx, nil) — and the nil *Span's methods all no-op — so call sites are
// unconditional. End the span exactly once.
func StartSpan(ctx context.Context, name string, opts ...SpanOption) (context.Context, *Span) {
	tr := FromContext(ctx)
	if tr == nil {
		return ctx, nil
	}
	s := &Span{tracer: tr, start: tr.clock()}
	s.record.Name = name
	if parent, _ := ctx.Value(spanKey).(*Span); parent != nil {
		s.record.Parent = parent.record.ID
		s.record.Lane = parent.record.Lane
	}
	tr.mu.Lock()
	tr.nextID++
	s.record.ID = tr.nextID
	tr.mu.Unlock()
	for _, o := range opts {
		o(s)
	}
	return context.WithValue(ctx, spanKey, s), s
}

// SetAttr annotates the span; values render with fmt.Sprint. No-op on nil
// or ended spans.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if s.record.Attrs == nil {
		s.record.Attrs = make(map[string]string, 4)
	}
	s.record.Attrs[key] = fmt.Sprint(value)
}

// End closes the span and records it on the tracer. Safe on nil spans;
// second and later calls no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := s.tracer.clock()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	rec := s.record
	s.mu.Unlock()
	rec.Start = s.start.Sub(s.tracer.epoch)
	rec.Dur = end.Sub(s.start)
	if rec.Dur < 0 {
		rec.Dur = 0
	}
	t := s.tracer
	t.mu.Lock()
	t.spans = append(t.spans, rec)
	t.mu.Unlock()
}

// chromeEvent is one trace_event JSON object. Complete events ("ph":"X")
// carry their own duration, so no begin/end pairing is needed; name
// metadata events ("ph":"M") label the lanes.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   int64             `json:"ts"`            // microseconds since epoch
	Dur  *int64            `json:"dur,omitempty"` // microseconds
	PID  int64             `json:"pid"`
	TID  int64             `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeTrace is the JSON object format of the Chrome trace-event spec;
// viewers ignore unknown top-level keys, so metadata rides along.
type chromeTrace struct {
	TraceEvents     []chromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	Metadata        map[string]string `json:"metadata,omitempty"`
}

// WriteChromeTrace exports the recorded spans as Chrome trace_event JSON
// (the object form: {"traceEvents": [...], "metadata": {...}}), loadable
// in chrome://tracing and Perfetto. Output is deterministic given
// deterministic span timings: events sort by start time then creation
// order.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: nil tracer")
	}
	spans := t.Snapshot()
	t.mu.Lock()
	meta := make(map[string]string, len(t.meta))
	for k, v := range t.meta {
		meta[k] = v
	}
	laneIDs := make([]int64, 0, len(t.lanes))
	for id := range t.lanes {
		laneIDs = append(laneIDs, id)
	}
	lanes := make(map[int64]string, len(t.lanes))
	for id, name := range t.lanes {
		lanes[id] = name
	}
	t.mu.Unlock()
	sort.Slice(laneIDs, func(i, j int) bool { return laneIDs[i] < laneIDs[j] })

	events := make([]chromeEvent, 0, len(spans)+len(laneIDs)+1)
	events = append(events, chromeEvent{
		Name: "thread_name", Ph: "M", PID: 1, TID: 0,
		Args: map[string]string{"name": "pipeline"},
	})
	for _, id := range laneIDs {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: id,
			Args: map[string]string{"name": lanes[id]},
		})
	}
	for i := range spans {
		sp := &spans[i]
		dur := sp.Dur.Microseconds()
		events = append(events, chromeEvent{
			Name: sp.Name,
			Cat:  "zatel",
			Ph:   "X",
			TS:   sp.Start.Microseconds(),
			Dur:  &dur,
			PID:  1,
			TID:  sp.Lane,
			Args: sp.Attrs,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeTrace{
		TraceEvents:     events,
		DisplayTimeUnit: "ms",
		Metadata:        meta,
	})
}
