package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"time"

	"zatel/internal/combine"
	"zatel/internal/extrapolate"
	"zatel/internal/heatmap"
	"zatel/internal/metrics"
	"zatel/internal/store"
)

// Versioned disk-format tags of the pipeline's cacheable artifacts. Bump
// on any layout change so old entries read as unknown-kind misses.
const (
	QuantCodecKind     = "core.quant/v1"
	PredictCodecKind   = "core.predict/v2"
	ReferenceCodecKind = "core.reference/v1"
)

func init() {
	store.RegisterCodec(quantCodec{})
	store.RegisterCodec(predictCodec{})
	store.RegisterCodec(referenceCodec{})
}

// referenceSize is a reference report's resident bytes.
var referenceSize = int64(reflect.TypeOf(metrics.Report{}).Size())

// referenceCodec serializes a reference run's metrics.Report, WallTime
// included, as the JSON of the struct: a few hundred bytes, floats
// round-trip exactly, and the report's field names are the format. A field
// added to the report needs a new kind, or old entries decode it as zero.
// It decodes to a loadedReport, so the value stays marked as another
// process's run while it is resident.
type referenceCodec struct{}

// loadedReport is a reference report decoded from a frame: its WallTime was
// measured by the process that built it, not this one.
type loadedReport metrics.Report

// Kind implements store.Codec.
func (referenceCodec) Kind() string { return ReferenceCodecKind }

// Encodes implements store.Codec.
func (referenceCodec) Encodes(v any) bool {
	switch v.(type) {
	case metrics.Report, loadedReport:
		return true
	}
	return false
}

// Encode implements store.Codec.
func (referenceCodec) Encode(v any) ([]byte, error) {
	switch r := v.(type) {
	case metrics.Report:
		return json.Marshal(r)
	case loadedReport:
		return json.Marshal(metrics.Report(r))
	}
	return nil, fmt.Errorf("core: reference codec cannot encode %T", v)
}

// Decode implements store.Codec.
func (referenceCodec) Decode(data []byte) (any, int64, error) {
	var r metrics.Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, 0, fmt.Errorf("core: reference payload: %w", err)
	}
	return loadedReport(r), referenceSize, nil
}

// quantCodec serializes the step-1/2 quantized heatmap: u32 width/height,
// u32 level count + f64 levels, u32 index count + u32 indices (little
// endian).
type quantCodec struct{}

// Kind implements store.Codec.
func (quantCodec) Kind() string { return QuantCodecKind }

// Encodes implements store.Codec.
func (quantCodec) Encodes(v any) bool {
	_, ok := v.(*heatmap.Quantized)
	return ok
}

// Encode implements store.Codec.
func (quantCodec) Encode(v any) ([]byte, error) {
	q, ok := v.(*heatmap.Quantized)
	if !ok {
		return nil, fmt.Errorf("core: quant codec cannot encode %T", v)
	}
	le := binary.LittleEndian
	buf := make([]byte, 0, 16+len(q.Levels)*8+len(q.Index)*4)
	buf = le.AppendUint32(buf, uint32(q.Width))
	buf = le.AppendUint32(buf, uint32(q.Height))
	buf = le.AppendUint32(buf, uint32(len(q.Levels)))
	for _, l := range q.Levels {
		buf = le.AppendUint64(buf, math.Float64bits(l))
	}
	buf = le.AppendUint32(buf, uint32(len(q.Index)))
	for _, i := range q.Index {
		if i < 0 || i >= len(q.Levels) {
			return nil, fmt.Errorf("core: quant index %d out of range for %d levels", i, len(q.Levels))
		}
		buf = le.AppendUint32(buf, uint32(i))
	}
	return buf, nil
}

// Decode implements store.Codec.
func (quantCodec) Decode(data []byte) (any, int64, error) {
	le := binary.LittleEndian
	if len(data) < 12 {
		return nil, 0, errors.New("core: quant payload truncated")
	}
	q := &heatmap.Quantized{
		Width:  int(le.Uint32(data[0:4])),
		Height: int(le.Uint32(data[4:8])),
	}
	nLevels := int(le.Uint32(data[8:12]))
	off := 12
	if nLevels <= 0 || len(data) < off+nLevels*8+4 {
		return nil, 0, fmt.Errorf("core: quant payload truncated at %d levels", nLevels)
	}
	q.Levels = make([]float64, nLevels)
	for i := range q.Levels {
		q.Levels[i] = math.Float64frombits(le.Uint64(data[off : off+8]))
		off += 8
	}
	nIndex := int(le.Uint32(data[off : off+4]))
	off += 4
	if nIndex != q.Width*q.Height || len(data) != off+nIndex*4 {
		return nil, 0, fmt.Errorf("core: quant index count %d disagrees with %dx%d / payload size",
			nIndex, q.Width, q.Height)
	}
	q.Index = make([]int, nIndex)
	for i := range q.Index {
		idx := int(le.Uint32(data[off : off+4]))
		off += 4
		if idx >= nLevels {
			return nil, 0, fmt.Errorf("core: quant index %d out of range for %d levels", idx, nLevels)
		}
		q.Index[i] = idx
	}
	return q, quantizedSize(q), nil
}

// predictCodec serializes cached predictions (core.Result) as a versioned
// JSON mirror: the payload is response-sized (about 2.3 KB at the default
// K, whatever the resolution), so self-describing JSON beats hand-rolled
// binary here, and the mirror types keep the disk format decoupled from
// in-memory struct evolution. Metric maps are keyed by the Table I metric
// names; errors are carried as strings. Result.Quantized is not part of
// the format: the heatmap is its own quant/v1 artifact, shared by every
// prediction swept over one profile.
type predictCodec struct{}

// Kind implements store.Codec.
func (predictCodec) Kind() string { return PredictCodecKind }

// Encodes implements store.Codec.
func (predictCodec) Encodes(v any) bool {
	_, ok := v.(*Result)
	return ok
}

type intervalJSON struct {
	Mean       float64 `json:"mean"`
	Low        float64 `json:"low"`
	High       float64 `json:"high"`
	Replicates int     `json:"replicates"`
}

type groupRunJSON struct {
	Report     metrics.Report          `json:"report"`
	Fraction   float64                 `json:"fraction"`
	Pixels     int                     `json:"pixels"`
	Selected   int                     `json:"selected"`
	WallNs     int64                   `json:"wall_ns"`
	QueueNs    int64                   `json:"queue_ns"`
	Attempts   int                     `json:"attempts"`
	Err        string                  `json:"err,omitempty"`
	Intervals  map[string]intervalJSON `json:"intervals,omitempty"`
	Replicates int                     `json:"replicates,omitempty"`
	Rounds     int                     `json:"rounds,omitempty"`
	TargetMet  bool                    `json:"target_met"`
}

type degradationJSON struct {
	FailedGroups []int          `json:"failed_groups"`
	GroupErrors  map[int]string `json:"group_errors"`
	Attempts     map[int]int    `json:"attempts"`
	Quorum       int            `json:"quorum"`
	Survivors    int            `json:"survivors"`
	Total        int            `json:"total"`
}

type resultJSON struct {
	Predicted    map[string]float64      `json:"predicted"`
	Intervals    map[string]intervalJSON `json:"intervals,omitempty"`
	Groups       []groupRunJSON          `json:"groups"`
	K            int                     `json:"k"`
	PreprocessNs int64                   `json:"preprocess_ns"`
	SimWallNs    int64                   `json:"sim_wall_ns"`
	TotalCPUNs   int64                   `json:"total_cpu_ns"`
	Degraded     *degradationJSON        `json:"degraded,omitempty"`
}

// metricByName resolves the Table I names used as JSON map keys.
var metricByName = func() map[string]metrics.Metric {
	m := make(map[string]metrics.Metric, len(metrics.All()))
	for _, mt := range metrics.All() {
		m[mt.String()] = mt
	}
	return m
}()

func valuesToJSON(v combine.GroupValues) map[string]float64 {
	if v == nil {
		return nil
	}
	out := make(map[string]float64, len(v))
	for m, x := range v {
		out[m.String()] = x
	}
	return out
}

func valuesFromJSON(v map[string]float64) (combine.GroupValues, error) {
	if v == nil {
		return nil, nil
	}
	out := make(combine.GroupValues, len(v))
	for name, x := range v {
		m, ok := metricByName[name]
		if !ok {
			return nil, fmt.Errorf("core: unknown metric %q in cached prediction", name)
		}
		out[m] = x
	}
	return out, nil
}

func intervalsToJSON(iv combine.GroupIntervals) map[string]intervalJSON {
	if iv == nil {
		return nil
	}
	out := make(map[string]intervalJSON, len(iv))
	for m, i := range iv {
		out[m.String()] = intervalJSON{Mean: i.Mean, Low: i.Low, High: i.High, Replicates: i.Replicates}
	}
	return out
}

func intervalsFromJSON(iv map[string]intervalJSON) (combine.GroupIntervals, error) {
	if iv == nil {
		return nil, nil
	}
	out := make(combine.GroupIntervals, len(iv))
	for name, i := range iv {
		m, ok := metricByName[name]
		if !ok {
			return nil, fmt.Errorf("core: unknown metric %q in cached intervals", name)
		}
		out[m] = extrapolate.Interval{Mean: i.Mean, Low: i.Low, High: i.High, Replicates: i.Replicates}
	}
	return out, nil
}

// Encode implements store.Codec.
func (predictCodec) Encode(v any) ([]byte, error) {
	r, ok := v.(*Result)
	if !ok {
		return nil, fmt.Errorf("core: predict codec cannot encode %T", v)
	}
	mirror := resultJSON{
		Predicted:    valuesToJSON(r.Predicted),
		Intervals:    intervalsToJSON(r.Intervals),
		Groups:       make([]groupRunJSON, len(r.Groups)),
		K:            r.K,
		PreprocessNs: int64(r.PreprocessTime),
		SimWallNs:    int64(r.SimWallTime),
		TotalCPUNs:   int64(r.TotalCPUTime),
	}
	for gi, g := range r.Groups {
		gj := groupRunJSON{
			Report:     g.Report,
			Fraction:   g.Fraction,
			Pixels:     g.Pixels,
			Selected:   g.Selected,
			WallNs:     int64(g.WallTime),
			QueueNs:    int64(g.QueueTime),
			Attempts:   g.Attempts,
			Intervals:  intervalsToJSON(g.Intervals),
			Replicates: g.Replicates,
			Rounds:     g.Rounds,
			TargetMet:  g.TargetMet,
		}
		if g.Err != nil {
			gj.Err = g.Err.Error()
		}
		mirror.Groups[gi] = gj
	}
	if d := r.Degraded; d != nil {
		dj := &degradationJSON{
			FailedGroups: d.FailedGroups,
			GroupErrors:  make(map[int]string, len(d.GroupErrors)),
			Attempts:     d.Attempts,
			Quorum:       d.Quorum,
			Survivors:    d.Survivors,
			Total:        d.Total,
		}
		for gi, err := range d.GroupErrors {
			dj.GroupErrors[gi] = err.Error()
		}
		mirror.Degraded = dj
	}
	return json.Marshal(mirror)
}

// Decode implements store.Codec.
func (predictCodec) Decode(data []byte) (any, int64, error) {
	var mirror resultJSON
	if err := json.Unmarshal(data, &mirror); err != nil {
		return nil, 0, fmt.Errorf("core: cached prediction: %w", err)
	}
	predicted, err := valuesFromJSON(mirror.Predicted)
	if err != nil {
		return nil, 0, err
	}
	intervals, err := intervalsFromJSON(mirror.Intervals)
	if err != nil {
		return nil, 0, err
	}
	r := &Result{
		Predicted:      predicted,
		Intervals:      intervals,
		Groups:         make([]GroupRun, len(mirror.Groups)),
		K:              mirror.K,
		PreprocessTime: time.Duration(mirror.PreprocessNs),
		SimWallTime:    time.Duration(mirror.SimWallNs),
		TotalCPUTime:   time.Duration(mirror.TotalCPUNs),
	}
	for gi, gj := range mirror.Groups {
		ivs, err := intervalsFromJSON(gj.Intervals)
		if err != nil {
			return nil, 0, err
		}
		g := GroupRun{
			Report:     gj.Report,
			Fraction:   gj.Fraction,
			Pixels:     gj.Pixels,
			Selected:   gj.Selected,
			WallTime:   time.Duration(gj.WallNs),
			QueueTime:  time.Duration(gj.QueueNs),
			Attempts:   gj.Attempts,
			Intervals:  ivs,
			Replicates: gj.Replicates,
			Rounds:     gj.Rounds,
			TargetMet:  gj.TargetMet,
		}
		if gj.Err != "" {
			g.Err = errors.New(gj.Err)
		}
		r.Groups[gi] = g
	}
	if dj := mirror.Degraded; dj != nil {
		d := &Degradation{
			FailedGroups: dj.FailedGroups,
			GroupErrors:  make(map[int]error, len(dj.GroupErrors)),
			Attempts:     dj.Attempts,
			Quorum:       dj.Quorum,
			Survivors:    dj.Survivors,
			Total:        dj.Total,
		}
		for gi, msg := range dj.GroupErrors {
			d.GroupErrors[gi] = errors.New(msg)
		}
		r.Degraded = d
	}
	return r, ResultSize(r), nil
}
