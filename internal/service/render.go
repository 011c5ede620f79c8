package service

import (
	"cmp"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// jsonw renders a PredictResponse in one pass, byte for byte what
// json.Encoder with SetIndent("", "  ") writes for it, without the reflection
// walk and the second, re-indenting pass. Every literal below carries the
// separator, indentation and name that precede a value. The values that make
// up a response in practice (plain strings, floats in fixed notation) are
// appended directly; the rare ones, whose rules are encoding/json's to
// define, are handed to it. TestRenderMatchesEncodingJSON holds the two
// encodings together.
type jsonw struct {
	b   []byte
	err error // first value encoding/json refused
}

func (w *jsonw) raw(s string)              { w.b = append(w.b, s...) }
func (w *jsonw) int(pre string, v int)     { w.b = strconv.AppendInt(append(w.b, pre...), int64(v), 10) }
func (w *jsonw) uint(pre string, v uint64) { w.b = strconv.AppendUint(append(w.b, pre...), v, 10) }

// rare appends encoding/json's own rendering of a scalar.
func (w *jsonw) rare(pre string, v any) {
	b, err := json.Marshal(v)
	w.err = cmp.Or(w.err, err)
	w.b = append(append(w.b, pre...), b...)
}

func (w *jsonw) float(pre string, f float64) {
	// encoding/json's to render: exponent notation, with its e-09 to e-9
	// clean-up, and NaN and the infinities, which it refuses.
	if abs := math.Abs(f); abs != 0 && !(abs >= 1e-6 && abs < 1e21) {
		w.rare(pre, f)
		return
	}
	w.b = strconv.AppendFloat(append(w.b, pre...), f, 'f', -1, 64)
}

func (w *jsonw) str(pre, s string) {
	for i := 0; i < len(s); i++ {
		// Escapes: quotes, control bytes, the HTML-sensitive three, and
		// anything past ASCII (U+2028/9, invalid UTF-8).
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			w.rare(pre, s)
			return
		}
	}
	w.b = append(append(append(append(w.b, pre...), '"'), s...), '"')
}

// floatMap renders a depth-1 map field in sorted key order.
func (w *jsonw) floatMap(pre string, m map[string]float64) {
	var stack [16]string
	keys := stack[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	w.raw(pre)
	sep := "{\n    "
	for _, k := range keys {
		w.str(sep, k)
		w.float(": ", m[k])
		sep = ",\n    "
	}
	w.end(m == nil, len(m), "{}", "\n  }")
}

// end finishes a map or slice field after its n elements, the first of which
// opened the bracket: a nil one is null, an empty one {} or [].
func (w *jsonw) end(isNil bool, n int, empty, closing string) {
	switch {
	case isNil:
		w.raw("null")
	case n == 0:
		w.raw(empty)
	default:
		w.raw(closing)
	}
}

func (w *jsonw) predictResponse(r *PredictResponse) {
	w.str("{\n  \"scene\": ", r.Scene)
	w.str(",\n  \"config\": ", r.Config)
	w.int(",\n  \"k\": ", r.K)
	w.str(",\n  \"key\": ", r.Key)
	w.str(",\n  \"cache\": ", r.Cache)
	w.floatMap(",\n  \"predicted\": ", r.Predicted)
	if len(r.CILow) > 0 {
		w.floatMap(",\n  \"ci_low\": ", r.CILow)
	}
	if len(r.CIHigh) > 0 {
		w.floatMap(",\n  \"ci_high\": ", r.CIHigh)
	}
	if r.Replicates != 0 {
		w.int(",\n  \"replicates\": ", r.Replicates)
	}
	w.raw(",\n  \"groups\": ")
	sep := "[\n    {\n      \"pixels\": "
	for i := range r.Groups {
		g := &r.Groups[i]
		w.int(sep, g.Pixels)
		sep = ",\n    {\n      \"pixels\": "
		w.int(",\n      \"selected\": ", g.Selected)
		w.float(",\n      \"fraction\": ", g.Fraction)
		w.int(",\n      \"attempts\": ", g.Attempts)
		w.uint(",\n      \"cycles\": ", g.Cycles)
		if g.Replicates != 0 {
			w.int(",\n      \"replicates\": ", g.Replicates)
		}
		if g.Rounds != 0 {
			w.int(",\n      \"rounds\": ", g.Rounds)
		}
		if g.TargetMet {
			w.raw(",\n      \"target_met\": true")
		}
		if g.Error != "" {
			w.str(",\n      \"error\": ", g.Error)
		}
		w.raw("\n    }")
	}
	w.end(r.Groups == nil, len(r.Groups), "[]", "\n  ]")
	if d := r.Degraded; d != nil {
		w.raw(",\n  \"degraded\": {\n    \"failed_groups\": ")
		sep := "[\n      "
		for _, g := range d.FailedGroups {
			w.int(sep, g)
			sep = ",\n      "
		}
		w.end(d.FailedGroups == nil, len(d.FailedGroups), "[]", "\n    ]")
		w.int(",\n    \"quorum\": ", d.Quorum)
		w.int(",\n    \"survivors\": ", d.Survivors)
		w.int(",\n    \"total\": ", d.Total)
		w.str(",\n    \"detail\": ", d.Detail)
		w.raw("\n  }")
	}
	w.float(",\n  \"preprocess_ms\": ", r.PreprocessMs)
	w.float(",\n  \"sim_wall_ms\": ", r.SimWallMs)
	w.float(",\n  \"total_cpu_ms\": ", r.TotalCPUMs)
	w.float(",\n  \"elapsed_ms\": ", r.ElapsedMs)
	w.str(",\n  \"request_id\": ", r.RequestID)
	if len(r.Trace) > 0 {
		// The one nested document: compacted, escaped and indented one level
		// in, as the encoder does to a RawMessage it meets at this depth.
		trace, err := json.MarshalIndent(r.Trace, "  ", "  ")
		w.err = cmp.Or(w.err, err)
		w.b = append(append(w.b, ",\n  \"trace\": "...), trace...)
	}
	w.raw("\n}\n")
}
