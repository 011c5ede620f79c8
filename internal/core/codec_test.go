package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"zatel/internal/combine"
	"zatel/internal/heatmap"
	"zatel/internal/metrics"
	"zatel/internal/sampling"
)

func testQuantized() *heatmap.Quantized {
	q := &heatmap.Quantized{
		Width:  4,
		Height: 3,
		Levels: []float64{0.5, 1.25, 7.75},
		Index:  make([]int, 12),
	}
	for i := range q.Index {
		q.Index[i] = i % len(q.Levels)
	}
	return q
}

func TestQuantCodecRoundTrip(t *testing.T) {
	q := testQuantized()
	c := quantCodec{}
	if !c.Encodes(q) {
		t.Fatal("Encodes(*Quantized) = false")
	}
	data, err := c.Encode(q)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	v, size, err := c.Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	got := v.(*heatmap.Quantized)
	if !reflect.DeepEqual(q, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", q, got)
	}
	if size <= 0 {
		t.Fatalf("size = %d, want > 0", size)
	}
}

func TestQuantCodecRejectsCorruption(t *testing.T) {
	c := quantCodec{}
	data, err := c.Encode(testQuantized())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	for _, n := range []int{0, 11, len(data) / 2, len(data) - 1} {
		if _, _, err := c.Decode(data[:n]); err == nil {
			t.Fatalf("Decode of %d/%d bytes succeeded", n, len(data))
		}
	}
	// An index pointing past the level table must be rejected.
	bad := append([]byte{}, data...)
	bad[len(bad)-4] = 0xFF
	if _, _, err := c.Decode(bad); err == nil {
		t.Fatal("Decode with out-of-range index succeeded")
	}
}

func testResult() *Result {
	iv := combine.GroupIntervals{
		metrics.IPC: {Mean: 1.5, Low: 1.2, High: 1.8, Replicates: 9},
	}
	predicted := make(combine.GroupValues)
	for i, m := range metrics.All() {
		predicted[m] = 0.25 * float64(i+1)
	}
	return &Result{
		Predicted: predicted,
		Intervals: iv,
		Groups: []GroupRun{
			{
				Report:     metrics.Report{Cycles: 9000, Instructions: 12600, WallTime: 80 * time.Millisecond},
				Fraction:   0.25,
				Pixels:     144,
				Selected:   36,
				WallTime:   90 * time.Millisecond,
				QueueTime:  5 * time.Millisecond,
				Attempts:   1,
				Intervals:  iv,
				Replicates: 9,
				Rounds:     2,
				TargetMet:  true,
			},
			{
				Fraction: 0.5,
				Pixels:   144,
				Attempts: 3,
				Err:      &GroupError{msg: "runner: injected failure"},
			},
		},
		K:              4,
		Quantized:      testQuantized(),
		PreprocessTime: 12 * time.Millisecond,
		SimWallTime:    200 * time.Millisecond,
		TotalCPUTime:   800 * time.Millisecond,
		Degraded:       &Degradation{FailedGroups: []int{1}, Quorum: 1, Survivors: 1, Total: 2},
	}
}

func TestPredictCodecRoundTrip(t *testing.T) {
	r := testResult()
	c := predictCodec{}
	if !c.Encodes(r) {
		t.Fatal("Encodes(*Result) = false")
	}
	data, err := c.Encode(r)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	v, size, err := c.Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	got := v.(*Result)
	if size <= 0 {
		t.Fatalf("size = %d, want > 0", size)
	}
	// v2 carries no heatmap: a Result out of a cache tier has none, and the
	// payload must not grow with the frame.
	want := *r
	want.Quantized = nil
	if !reflect.DeepEqual(&want, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\nhave %+v", &want, got)
	}
	again, err := c.Encode(got)
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("re-encoded payload differs: format is not canonical\n%s\n%s", data, again)
	}

	// A decoded Result holds exactly its groups, as ResultSize charges,
	// also at a K whose group count the decoder's slice growth overshoots.
	r5 := testResult()
	r5.Groups = append(r5.Groups, r5.Groups[0], r5.Groups[0], r5.Groups[0])
	r5.Degraded.Total, r5.Degraded.Survivors = 5, 4
	if data, err = c.Encode(r5); err != nil {
		t.Fatal(err)
	}
	if v, _, err = c.Decode(data); err != nil {
		t.Fatal(err)
	}
	if g := v.(*Result).Groups; cap(g) != len(g) {
		t.Errorf("decoded 5 groups into a slice of capacity %d", cap(g))
	}
}

// The v2 fixtures are payloads the mirror-type codec wrote (see
// CHANGES.md for the command): SPRNG 48², spp 1, MobileSoC, as a uniform
// Eq. 1 prediction, an adaptive stratified one (target 0.1) and a degraded
// one (error rate 0.5, seed 3, three attempts).
func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "predict_v2_"+name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPredictCodecReadsV2Fixtures: entries written before core.Result
// became its own format decode to the same fields, and re-encode to the
// same bytes, less the degradation's two copies of the failed groups'
// errors and attempts that the format no longer carries.
func TestPredictCodecReadsV2Fixtures(t *testing.T) {
	decode := func(name string) (*Result, []byte) {
		data := readFixture(t, name)
		v, _, err := predictCodec{}.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return v.(*Result), data
	}
	reencodes := func(name string, r *Result, want []byte) {
		again, err := predictCodec{}.Encode(r)
		if err != nil || !bytes.Equal(again, want) {
			t.Errorf("%s re-encoded (err %v):\n%s\nwant\n%s", name, err, again, want)
		}
	}

	plain, data := decode("plain")
	if plain.K != 4 || len(plain.Groups) != 4 || plain.Intervals != nil || plain.Degraded != nil ||
		plain.Predicted[metrics.IPC] != 4.0662285405508936 {
		t.Errorf("plain: %+v", plain)
	}
	for gi, g := range plain.Groups {
		if g.Err != nil || g.Attempts != 1 || g.Pixels != 576 || g.Rounds != 0 || g.Report.Cycles == 0 {
			t.Errorf("plain group %d: %+v", gi, g)
		}
	}
	reencodes("plain", plain, data)

	rep, data := decode("replicated")
	if len(rep.Intervals) != len(metrics.All()) || rep.Intervals[metrics.IPC].Mean != rep.Predicted[metrics.IPC] {
		t.Errorf("replicated intervals %+v", rep.Intervals)
	}
	for gi, g := range rep.Groups {
		if len(g.Intervals) != len(metrics.All()) || g.Replicates != 5 || g.Rounds != 3 || g.TargetMet {
			t.Errorf("replicated group %d: %+v", gi, g)
		}
	}
	reencodes("replicated", rep, data)

	deg, data := decode("degraded")
	const msg = "faults: job 3 attempt 3: faults: injected failure"
	if d := deg.Degraded; d == nil || !reflect.DeepEqual(d.FailedGroups, []int{3}) ||
		d.Quorum != 2 || d.Survivors != 3 || d.Total != 4 {
		t.Errorf("degraded: %+v", d)
	}
	if g := deg.Groups[3]; g.Err == nil || g.Err.Error() != msg || g.Attempts != 3 {
		t.Errorf("failed group: %+v", g)
	}
	if g := deg.Groups[2]; g.Err != nil || g.Attempts != 2 {
		t.Errorf("retried group: %+v", g)
	}
	copies := []byte(`"group_errors":{"3":"` + msg + `"},"attempts":{"3":3},`)
	if !bytes.Contains(data, copies) {
		t.Fatalf("degraded fixture lacks %s", copies)
	}
	reencodes("degraded", deg, bytes.Replace(data, copies, nil, 1))
}

// rejectedPayloads are predictions no PredictContext run produces, each
// derived from a v2 fixture by one edit.
func rejectedPayloads(t testing.TB) map[string][]byte {
	edit := func(name string, fn func(r map[string]any, deg map[string]any)) []byte {
		var r map[string]any
		if err := json.Unmarshal(readFixture(t, name), &r); err != nil {
			t.Fatal(err)
		}
		deg, _ := r["degraded"].(map[string]any)
		fn(r, deg)
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	return map[string][]byte{
		"not json":           []byte(`not json`),
		"empty":              []byte(`{}`),
		"empty predicted":    []byte(`{"predicted":{}}`),
		"unknown metric":     edit("plain", func(r, _ map[string]any) { r["predicted"].(map[string]any)["no such metric"] = 1 }),
		"unknown interval":   edit("replicated", func(r, _ map[string]any) { r["intervals"].(map[string]any)["GPU"] = map[string]any{} }),
		"missing metric":     edit("plain", func(r, _ map[string]any) { delete(r["predicted"].(map[string]any), "GPU IPC") }),
		"no groups":          edit("plain", func(r, _ map[string]any) { r["groups"] = []any{} }),
		"null groups":        edit("plain", func(r, _ map[string]any) { delete(r, "groups") }),
		"k 0":                edit("plain", func(r, _ map[string]any) { r["k"] = 0 }),
		"error, no degraded": edit("degraded", func(r, _ map[string]any) { delete(r, "degraded") }),
		"degraded, no error": edit("plain", func(r, _ map[string]any) {
			r["degraded"] = map[string]any{"failed_groups": []int{}, "quorum": 2, "survivors": 4, "total": 4}
		}),
		"total 5":              edit("degraded", func(_, d map[string]any) { d["total"] = 5 }),
		"failed repeated":      edit("degraded", func(_, d map[string]any) { d["failed_groups"] = []int{3, 3} }),
		"failed out of range":  edit("degraded", func(_, d map[string]any) { d["failed_groups"] = []int{7} }),
		"failed negative":      edit("degraded", func(_, d map[string]any) { d["failed_groups"] = []int{-1} }),
		"failed not the error": edit("degraded", func(_, d map[string]any) { d["failed_groups"] = []int{2} }),
		"failed extra":         edit("degraded", func(_, d map[string]any) { d["failed_groups"] = []int{2, 3} }),
		"survivors 4":          edit("degraded", func(_, d map[string]any) { d["survivors"] = 4 }),
		"quorum 0":             edit("degraded", func(_, d map[string]any) { d["quorum"] = 0 }),
		"quorum 4":             edit("degraded", func(_, d map[string]any) { d["quorum"] = 4 }),
		"one group, total 0": edit("plain", func(r, _ map[string]any) {
			g := r["groups"].([]any)[0].(map[string]any)
			g["err"] = "lost"
			r["groups"] = []any{g}
			r["degraded"] = map[string]any{"failed_groups": []int{7}, "survivors": -1, "total": 0}
		}),
	}
}

// TestPredictCodecRejectsCorruption: garbage, an unknown metric name, and a
// payload that decodes as JSON but describes no prediction the pipeline
// makes are errors, not a Result a tier would serve with zeros.
func TestPredictCodecRejectsCorruption(t *testing.T) {
	for name, data := range rejectedPayloads(t) {
		if v, _, err := (predictCodec{}).Decode(data); err == nil {
			t.Errorf("%s: Decode accepted %s as %+v", name, data, v)
		}
	}
}

// FuzzPredictDecode: every payload Decode accepts re-encodes to bytes that
// decode, and so validate, again to a deep-equal Result. A group's error
// decodes to its message alone, so errors compare by message.
func FuzzPredictDecode(f *testing.F) {
	for _, name := range []string{"plain", "replicated", "degraded"} {
		f.Add(readFixture(f, name))
	}
	for _, data := range rejectedPayloads(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, _, err := predictCodec{}.Decode(data)
		if err != nil {
			return
		}
		again, err := predictCodec{}.Encode(v)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		w, _, err := predictCodec{}.Decode(again)
		if err != nil {
			t.Fatalf("re-encoded payload rejected: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(v, w) {
			t.Fatalf("re-decoded Result differs:\n%+v\n%+v", v, w)
		}
	})
}

// TestResultSizeTracksEncodedPayload: the bytes the store's LRU is charged
// for a cached prediction must be of the order of what the prediction
// holds — within 2× of its encoded payload — for a point estimate and for
// a replicated result with intervals. The heatmap is not part of either:
// the store accounts it once, under its own quant/v1 key.
func TestResultSizeTracksEncodedPayload(t *testing.T) {
	cases := map[string]sampling.Distribution{
		"point":      sampling.Uniform,
		"replicated": sampling.Stratified,
	}
	for name, dist := range cases {
		t.Run(name, func(t *testing.T) {
			opts := small("SPRNG")
			opts.Dist = dist
			res, err := Predict(opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Quantized == nil {
				t.Fatal("PredictContext returned no quantized heatmap")
			}
			if (res.Intervals != nil) != dist.Replicated() {
				t.Fatalf("Intervals = %v for %v", res.Intervals, dist)
			}
			data, err := (predictCodec{}).Encode(res)
			if err != nil {
				t.Fatal(err)
			}
			size, payload := ResultSize(res), int64(len(data))
			if size*2 < payload || size > payload*2 {
				t.Errorf("ResultSize = %d B, encoded payload = %d B: not within 2x", size, payload)
			}
			if cached, _, err := (predictCodec{}).Decode(data); err != nil || ResultSize(cached.(*Result)) != size {
				t.Errorf("decoded copy sized differently (err %v)", err)
			}
		})
	}
}
