package core

import (
	"bytes"
	"errors"
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
	return &Result{
		Predicted: combine.GroupValues{
			metrics.IPC:           1.5,
			metrics.BWUtilization: 0.62,
		},
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
				Err:      errors.New("runner: injected failure"),
			},
		},
		K:              4,
		Quantized:      testQuantized(),
		PreprocessTime: 12 * time.Millisecond,
		SimWallTime:    200 * time.Millisecond,
		TotalCPUTime:   800 * time.Millisecond,
		Degraded: &Degradation{
			FailedGroups: []int{1},
			GroupErrors:  map[int]error{1: errors.New("runner: injected failure")},
			Attempts:     map[int]int{0: 1, 1: 3},
			Quorum:       3,
			Survivors:    3,
			Total:        4,
		},
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
	if !reflect.DeepEqual(r.Predicted, got.Predicted) {
		t.Fatalf("Predicted mismatch: %+v vs %+v", r.Predicted, got.Predicted)
	}
	if !reflect.DeepEqual(r.Intervals, got.Intervals) {
		t.Fatalf("Intervals mismatch: %+v vs %+v", r.Intervals, got.Intervals)
	}
	// v2 carries no heatmap: a Result out of a cache tier has none, and the
	// payload must not grow with the frame.
	if got.Quantized != nil {
		t.Fatalf("Quantized survived the codec: %+v", got.Quantized)
	}
	again, err := c.Encode(got)
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("re-encoded payload differs: format is not canonical\n%s\n%s", data, again)
	}
	if got.K != r.K || got.PreprocessTime != r.PreprocessTime ||
		got.SimWallTime != r.SimWallTime || got.TotalCPUTime != r.TotalCPUTime {
		t.Fatalf("scalar fields mismatch: %+v", got)
	}
	if len(got.Groups) != len(r.Groups) {
		t.Fatalf("group count mismatch: %d vs %d", len(got.Groups), len(r.Groups))
	}
	for i := range r.Groups {
		want, have := r.Groups[i], got.Groups[i]
		if (want.Err == nil) != (have.Err == nil) {
			t.Fatalf("group %d Err presence mismatch", i)
		}
		if want.Err != nil && want.Err.Error() != have.Err.Error() {
			t.Fatalf("group %d Err mismatch: %q vs %q", i, want.Err, have.Err)
		}
		// Errors decode as fresh values; blank them for the struct compare.
		want.Err, have.Err = nil, nil
		if !reflect.DeepEqual(want, have) {
			t.Fatalf("group %d mismatch:\nwant %+v\nhave %+v", i, want, have)
		}
	}
	d, gd := r.Degraded, got.Degraded
	if gd == nil {
		t.Fatal("Degraded lost in round trip")
	}
	if !reflect.DeepEqual(d.FailedGroups, gd.FailedGroups) ||
		!reflect.DeepEqual(d.Attempts, gd.Attempts) ||
		d.Quorum != gd.Quorum || d.Survivors != gd.Survivors || d.Total != gd.Total {
		t.Fatalf("Degraded mismatch:\nwant %+v\nhave %+v", d, gd)
	}
	for gi, err := range d.GroupErrors {
		if gd.GroupErrors[gi] == nil || gd.GroupErrors[gi].Error() != err.Error() {
			t.Fatalf("Degraded.GroupErrors[%d] mismatch", gi)
		}
	}
}

func TestPredictCodecRejectsCorruption(t *testing.T) {
	c := predictCodec{}
	if _, _, err := c.Decode([]byte(`{"predicted":{"no such metric":1}}`)); err == nil {
		t.Fatal("Decode with unknown metric name succeeded")
	}
	if _, _, err := c.Decode([]byte(`not json`)); err == nil {
		t.Fatal("Decode of garbage succeeded")
	}
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
