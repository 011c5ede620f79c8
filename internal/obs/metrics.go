package obs

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Desc declares one metric family. It is the one place the family's name,
// Prometheus type ("counter", "gauge" or "histogram"), help text and label
// names are written down: a Registry exposes what it declares and nothing
// else, and zateld's operator documentation is generated from the same
// declarations.
type Desc struct {
	Name, Type, Help string
	Labels           []string // label names, at most maxLabels
}

// maxLabels bounds a family's label names, so that a series is found by a
// fixed-size key without allocating.
const maxLabels = 2

// series is one labelled member of a family: a counter or gauge value, or
// a histogram.
type series struct {
	labels string // rendered label pairs, e.g. `handler="predict",code="200"`
	value  float64
	hist   *Histogram
}

type family struct {
	desc   Desc
	series map[[maxLabels]string]*series
}

// Registry is one owner's set of metric families: zateld keeps one per
// server, so two servers in one process never share a series. A series
// comes into being on its first use and only then appears in the
// exposition. Every method is safe for concurrent use. Add on a nil
// Registry does nothing, so code counts unconditionally into the registry
// its context may carry (see RegistryFrom).
type Registry struct {
	mu       sync.Mutex
	families []*family // declaration order, the exposition's order
	byName   map[string]*family
}

// NewRegistry returns a registry of the declared families. A name declared
// twice or a family with more than maxLabels labels is a programming error
// and panics.
func NewRegistry(descs ...Desc) *Registry {
	r := &Registry{byName: make(map[string]*family, len(descs))}
	for _, d := range descs {
		if _, dup := r.byName[d.Name]; dup || len(d.Labels) > maxLabels {
			panic(fmt.Sprintf("obs: metric %s declared twice or with more than %d labels", d.Name, maxLabels))
		}
		f := &family{desc: d, series: map[[maxLabels]string]*series{}}
		r.families = append(r.families, f)
		r.byName[d.Name] = f
	}
	return r
}

// lookup returns d's series with the given label values, creating it on
// first use. r.mu must be held. An undeclared family, the wrong kind or the
// wrong number of label values panics.
func (r *Registry) lookup(d *Desc, hist bool, labels []string) *series {
	f := r.byName[d.Name]
	if f == nil || (f.desc.Type == "histogram") != hist || len(labels) != len(f.desc.Labels) {
		panic(fmt.Sprintf("obs: %s with %d labels is not declared in this registry", d.Name, len(labels)))
	}
	var key [maxLabels]string
	copy(key[:], labels)
	s := f.series[key]
	if s == nil {
		pairs := make([]string, len(labels))
		for i, v := range labels {
			pairs[i] = fmt.Sprintf("%s=%q", f.desc.Labels[i], v)
		}
		s = &series{labels: strings.Join(pairs, ",")}
		if hist {
			s.hist = NewHistogram()
		}
		f.series[key] = s
	}
	return s
}

// Add moves the counter or gauge series of d with the given label values
// by v (negative to decrease a gauge).
func (r *Registry) Add(d *Desc, v float64, labels ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.lookup(d, false, labels).value += v
	r.mu.Unlock()
}

// Set replaces the value of a counter or gauge series, for values read
// from their owner at scrape time.
func (r *Registry) Set(d *Desc, v float64, labels ...string) {
	r.mu.Lock()
	r.lookup(d, false, labels).value = v
	r.mu.Unlock()
}

// Histogram returns the histogram series of d with the given label values,
// which callers observe without taking the registry's lock.
func (r *Registry) Histogram(d *Desc, labels ...string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lookup(d, true, labels).hist
}

// SetHistogram exposes h, which its owner keeps observing, as the
// unlabelled series of d.
func (r *Registry) SetHistogram(d *Desc, h *Histogram) {
	r.mu.Lock()
	r.lookup(d, true, nil).hist = h
	r.mu.Unlock()
}

// WritePrometheus writes every family that has a series in Prometheus text
// exposition format: families in declaration order, a family's series
// sorted by label values. It renders under the lock and writes after it,
// so a slow reader never holds up counting.
func (r *Registry) WritePrometheus(w io.Writer) {
	var b bytes.Buffer
	r.mu.Lock()
	for _, f := range r.families {
		d := &f.desc
		if len(f.series) > 0 {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", d.Name, d.Help, d.Name, d.Type)
		}
		ss := make([]*series, 0, len(f.series))
		for _, s := range f.series {
			ss = append(ss, s)
		}
		sort.Slice(ss, func(i, j int) bool { return ss[i].labels < ss[j].labels })
		for _, s := range ss {
			switch {
			case s.hist != nil:
				s.hist.writeProm(&b, d.Name, s.labels)
			case s.labels != "":
				fmt.Fprintf(&b, "%s{%s} %s\n", d.Name, s.labels, strconv.FormatFloat(s.value, 'f', -1, 64))
			default:
				fmt.Fprintf(&b, "%s %s\n", d.Name, strconv.FormatFloat(s.value, 'f', -1, 64))
			}
		}
	}
	r.mu.Unlock()
	w.Write(b.Bytes())
}

// WithRegistry attaches r to the context: code below it counts into r.
func WithRegistry(ctx context.Context, r *Registry) context.Context {
	return context.WithValue(ctx, registryKey, r)
}

// RegistryFrom returns the context's registry, or nil when none is
// attached (the CLIs attach none, and count nothing).
func RegistryFrom(ctx context.Context) *Registry {
	r, _ := ctx.Value(registryKey).(*Registry)
	return r
}
