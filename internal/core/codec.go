package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"

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

// predictCodec serializes cached predictions (core.Result) as the JSON of
// the struct, the rule referenceCodec follows: the json tags on Result,
// GroupRun, Degradation and extrapolate.Interval are the format, metric
// maps are keyed by the Table I names (metrics.Metric's text form) and a
// group's error is its message. Changing a tag needs a new kind. The
// payload is response-sized (about 2.3 KB at the default K, whatever the
// resolution). Result.Quantized is not part of the format: the heatmap is
// its own quant/v1 artifact, shared by every prediction swept over one
// profile.
type predictCodec struct{}

// Kind implements store.Codec.
func (predictCodec) Kind() string { return PredictCodecKind }

// Encodes implements store.Codec.
func (predictCodec) Encodes(v any) bool {
	_, ok := v.(*Result)
	return ok
}

// Encode implements store.Codec.
func (predictCodec) Encode(v any) ([]byte, error) {
	r, ok := v.(*Result)
	if !ok {
		return nil, fmt.Errorf("core: predict codec cannot encode %T", v)
	}
	return json.Marshal(r)
}

// Decode implements store.Codec.
func (predictCodec) Decode(data []byte) (any, int64, error) {
	r := new(Result)
	if err := json.Unmarshal(data, r); err != nil {
		return nil, 0, fmt.Errorf("core: cached prediction: %w", err)
	}
	if err := r.validate(); err != nil {
		return nil, 0, fmt.Errorf("core: cached prediction: %w", err)
	}
	if cap(r.Groups) > len(r.Groups) {
		// Unmarshal grows the slice by doubling: at K=5 or 6 a resident
		// Result would hold eight GroupRuns, more than ResultSize charges.
		r.Groups = slices.Clone(r.Groups)
	}
	return r, ResultSize(r), nil
}

// validate rejects a decoded prediction that PredictContext cannot have
// produced, so that no tier serves it: a missing Table I metric, no groups,
// K < 1, failed groups without a degradation, or a degradation that
// disagrees with the groups (its total, its failed groups in index order,
// its survivors and quorum).
func (r *Result) validate() error {
	if n := len(metrics.All()); len(r.Predicted) != n {
		return fmt.Errorf("%d of %d metrics predicted", len(r.Predicted), n)
	}
	if len(r.Groups) == 0 || r.K < 1 {
		return fmt.Errorf("%d groups at k %d", len(r.Groups), r.K)
	}
	var failed []int
	for gi := range r.Groups {
		if r.Groups[gi].Err != nil {
			failed = append(failed, gi)
		}
	}
	d := r.Degraded
	if d == nil {
		if failed != nil {
			return fmt.Errorf("groups %v failed without a degradation", failed)
		}
		return nil
	}
	if failed == nil || !slices.Equal(d.FailedGroups, failed) || d.Total != len(r.Groups) ||
		d.Survivors != d.Total-len(failed) || d.Quorum < 1 || d.Quorum > d.Survivors {
		return fmt.Errorf("degradation %+v disagrees with %d groups, %v failed", *d, len(r.Groups), failed)
	}
	return nil
}
