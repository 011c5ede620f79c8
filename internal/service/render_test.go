package service

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// encodeReference is the encoding the wire contract is defined by: what
// writeJSON produced for a PredictResponse before the renderer existed.
func encodeReference(resp *PredictResponse) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(resp)
	return buf.Bytes(), err
}

func render(resp *PredictResponse) ([]byte, error) {
	var w jsonw
	w.predictResponse(resp)
	return w.b, w.err
}

// checkRender holds the renderer to the reference: the same bytes, or an
// error wherever encoding/json refuses the value.
func checkRender(t *testing.T, name string, resp *PredictResponse) {
	t.Helper()
	want, wantErr := encodeReference(resp)
	got, gotErr := render(resp)
	if wantErr != nil || gotErr != nil {
		if (wantErr == nil) != (gotErr == nil) {
			t.Errorf("%s: renderer error %v, encoding/json error %v", name, gotErr, wantErr)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: renderer differs from encoding/json\n--- renderer\n%s\n--- encoding/json\n%s", name, got, want)
	}
}

var (
	trickyStrings = []string{
		"", "SPRNG", "GPU IPC", `q"uote`, `back\slash`, "<script>&amp;</script>",
		"\x00\x01\x1f", "\b\f\n\r\t\v", "\x7f", "line\u2028sep\u2029", "\xff\xfe bad utf8",
		"cut\xc3", "valid \uFFFD replacement", "日本語 é", "a=b|c%d",
	}
	trickyFloats = []float64{
		0, math.Copysign(0, -1), 1, -1.5, 0.1, 1.0 / 3, 1e-7, 9.99e-7, 1e-6, 9.99e20, 1e21, -1e21,
		1e-9, 1.5e-9, 1e-10, 2.5e-100, 1e100, 1 << 53, 1<<53 + 2, 123456789.125,
		math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	trickyTraces = []string{
		"", `{}`, `[]`, `null`, `"a<b"`, ` { "traceEvents" : [ ] , "metadata" : { } } ` + "\n",
		`{"traceEvents":[{"name":"<step1&2>","args":{},"lanes":[]},{"ts":1.5e-7}],"displayTimeUnit":"ms"}`,
	}
)

func pick[T any](rng *rand.Rand, from []T) T { return from[rng.Intn(len(from))] }

func floatMapOf(rng *rand.Rand, n int) map[string]float64 {
	m := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		m[pick(rng, trickyStrings)] = pick(rng, trickyFloats)
	}
	return m
}

// randomResponse draws every field from the tricky pools, so optional
// fields come and go and each value kind meets each position.
func randomResponse(rng *rand.Rand, groups int) *PredictResponse {
	r := &PredictResponse{
		Scene: pick(rng, trickyStrings), Config: pick(rng, trickyStrings), K: rng.Intn(7) - 1,
		Key: pick(rng, trickyStrings), Cache: pick(rng, trickyStrings),
		Predicted:    floatMapOf(rng, rng.Intn(9)),
		PreprocessMs: pick(rng, trickyFloats), SimWallMs: pick(rng, trickyFloats),
		TotalCPUMs: pick(rng, trickyFloats), ElapsedMs: pick(rng, trickyFloats),
		RequestID: pick(rng, trickyStrings), Trace: json.RawMessage(pick(rng, trickyTraces)),
	}
	if rng.Intn(2) == 0 {
		r.CILow, r.CIHigh, r.Replicates = floatMapOf(rng, rng.Intn(8)), floatMapOf(rng, 7), rng.Intn(6)
	}
	for i := 0; i < groups; i++ {
		g := GroupInfo{Pixels: rng.Intn(1 << 20), Selected: rng.Intn(1 << 10), Fraction: pick(rng, trickyFloats),
			Attempts: rng.Intn(4), Cycles: rng.Uint64() >> uint(rng.Intn(64))}
		if rng.Intn(2) == 0 {
			g.Replicates, g.Rounds, g.TargetMet = rng.Intn(6), rng.Intn(5), rng.Intn(2) == 0
		}
		if rng.Intn(3) == 0 {
			g.Error = pick(rng, trickyStrings)
		}
		r.Groups = append(r.Groups, g)
	}
	switch rng.Intn(4) {
	case 1:
		r.Degraded = &DegradedInfo{Quorum: 1, Survivors: 2, Total: 3, Detail: pick(rng, trickyStrings)}
	case 2:
		r.Degraded = &DegradedInfo{FailedGroups: []int{}, Detail: pick(rng, trickyStrings)}
	case 3:
		r.Degraded = &DegradedInfo{FailedGroups: []int{4, 0, -1, 1 << 40}, Total: 6}
	}
	return r
}

// TestRenderMatchesEncodingJSON: the wire contract. The renderer and
// json.Encoder+SetIndent agree byte for byte over point and replicated
// responses, every optional field present and absent, the float formats
// either side of encoding/json's switches and every class of string escape.
func TestRenderMatchesEncodingJSON(t *testing.T) {
	point := &PredictResponse{
		Scene: "SPRNG", Config: "MobileSoC", K: 2, Key: strings.Repeat("ab", 32), Cache: "hit",
		Predicted: map[string]float64{"GPU IPC": 1.25, "L1D Miss Rate": 0.5, "DRAM Efficiency": 1e-7},
		Groups:    []GroupInfo{{Pixels: 512, Selected: 64, Fraction: 0.125, Attempts: 1, Cycles: 1 << 40}},
		ElapsedMs: 0.0573, RequestID: "0123456789abcdef",
	}
	checkRender(t, "point", point)

	replicated := *point
	replicated.CILow = map[string]float64{"GPU IPC": 1.2}
	replicated.CIHigh = map[string]float64{"GPU IPC": 1.3}
	replicated.Replicates = 5
	replicated.Groups = make([]GroupInfo, 6)
	for i := range replicated.Groups {
		replicated.Groups[i] = GroupInfo{Pixels: i, Replicates: 5, Rounds: i % 3, TargetMet: i%2 == 0}
	}
	replicated.Groups[3].Error = `group 3: "sim" <failed> & gave up`
	checkRender(t, "replicated", &replicated)

	for name, edit := range map[string]func(*PredictResponse){
		"nil maps and groups": func(r *PredictResponse) { r.Predicted, r.Groups = nil, nil },
		"empty maps and groups": func(r *PredictResponse) {
			r.Predicted, r.CILow, r.Groups = map[string]float64{}, map[string]float64{}, []GroupInfo{}
		},
		"degraded nil list":   func(r *PredictResponse) { r.Degraded = &DegradedInfo{Quorum: 1, Survivors: 1, Total: 2, Detail: "1/2"} },
		"degraded empty list": func(r *PredictResponse) { r.Degraded = &DegradedInfo{FailedGroups: []int{}} },
		"degraded list": func(r *PredictResponse) {
			r.Degraded = &DegradedInfo{FailedGroups: []int{1, 4}, Detail: "<2 of 6 lost>"}
		},
		"NaN refused":           func(r *PredictResponse) { r.Predicted["GPU IPC"] = math.NaN() },
		"Inf refused":           func(r *PredictResponse) { r.Groups[0].Fraction = math.Inf(-1) },
		"invalid trace refused": func(r *PredictResponse) { r.Trace = json.RawMessage(`{"open":`) },
	} {
		r := *point
		r.Predicted = map[string]float64{"GPU IPC": 1.25}
		r.Groups = []GroupInfo{{Pixels: 1}}
		edit(&r)
		checkRender(t, name, &r)
	}
	for _, s := range trickyStrings {
		r := *point
		r.Scene, r.RequestID, r.Predicted = s, s, map[string]float64{s: 1}
		checkRender(t, "string "+strings.ToValidUTF8(s, "?"), &r)
	}
	for _, f := range trickyFloats {
		r := *point
		r.ElapsedMs, r.Predicted = f, map[string]float64{"m": -f}
		checkRender(t, "float", &r)
	}
	for _, tr := range trickyTraces {
		r := *point
		r.Trace = json.RawMessage(tr)
		checkRender(t, "trace "+tr, &r)
	}

	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 300; i++ {
		checkRender(t, "seeded", randomResponse(rng, []int{0, 1, 6}[i%3]))
	}
}

// populate sets every field of a response struct to a non-empty value, so
// that no omitempty hides one.
func populate(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString("x")
	case reflect.Int:
		v.SetInt(3)
	case reflect.Uint64:
		v.SetUint(4)
	case reflect.Float64:
		v.SetFloat(1.5)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Map:
		v.Set(reflect.ValueOf(map[string]float64{"m": 1.5}))
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
		populate(t, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			populate(t, v.Field(i))
		}
	case reflect.Slice:
		if v.Type() == reflect.TypeOf(json.RawMessage{}) {
			v.SetBytes([]byte(`{"t":1}`))
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		populate(t, v.Index(0))
	default:
		t.Fatalf("response field of kind %s: teach populate and the renderer about it", v.Kind())
	}
}

// requireFields fails for every json-tagged field of typ that obj lacks.
func requireFields(t *testing.T, typ reflect.Type, obj map[string]any) {
	t.Helper()
	for i := 0; i < typ.NumField(); i++ {
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		if _, ok := obj[name]; !ok {
			t.Errorf("renderer drops %s.%s (json %q): add it to predictResponse in render.go", typ.Name(), typ.Field(i).Name, name)
		}
	}
}

// TestRenderEmitsEveryField: a field added to the response types must reach
// the renderer; encoding/json found it by reflection, the renderer cannot.
func TestRenderEmitsEveryField(t *testing.T) {
	var resp PredictResponse
	populate(t, reflect.ValueOf(&resp).Elem())
	checkRender(t, "fully populated", &resp)

	out, err := render(&resp)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]any
	if err := json.Unmarshal(out, &top); err != nil {
		t.Fatalf("rendered response is not JSON: %v\n%s", err, out)
	}
	requireFields(t, reflect.TypeOf(resp), top)
	group, _ := top["groups"].([]any)[0].(map[string]any)
	requireFields(t, reflect.TypeOf(GroupInfo{}), group)
	degraded, _ := top["degraded"].(map[string]any)
	requireFields(t, reflect.TypeOf(DegradedInfo{}), degraded)
}

// FuzzRenderPredictResponse: fuzzed strings, floats and trace bytes in every
// position that takes one; the renderer must equal encoding/json or refuse
// exactly what it refuses (NaN, +/-Inf, a trace that is not JSON).
func FuzzRenderPredictResponse(f *testing.F) {
	f.Add("SPRNG", "GPU IPC", 1.25, 1e-7, uint8(2), []byte(nil))
	f.Add("<a&b>\u2028", "q\"\\\x00\xff", math.Copysign(0, -1), 1e21, uint8(7), []byte(`{"traceEvents":[],"m":{}}`))
	f.Add("", "\x7f\t", math.NaN(), math.Inf(1), uint8(255), []byte(`{"open":`))
	f.Fuzz(func(t *testing.T, s1, s2 string, f1, f2 float64, shape uint8, trace []byte) {
		r := &PredictResponse{
			Scene: s1, Config: s2, K: int(shape), Key: s2, Cache: s1,
			Predicted:    map[string]float64{s1: f1, s2: f2},
			PreprocessMs: f2, ElapsedMs: f1, RequestID: s1, Trace: json.RawMessage(trace),
		}
		if shape&1 != 0 {
			r.CILow, r.CIHigh, r.Replicates = map[string]float64{s2: f1}, map[string]float64{s1: f2}, int(shape>>1)
		}
		for i := 0; i < int(shape>>1&3); i++ {
			r.Groups = append(r.Groups, GroupInfo{Pixels: i, Fraction: f1, Cycles: math.Float64bits(f2), TargetMet: shape&8 != 0, Error: s2})
		}
		if shape&16 != 0 {
			r.Degraded = &DegradedInfo{FailedGroups: make([]int, shape>>6), Detail: s1}
		}
		checkRender(t, "fuzzed", r)
	})
}
