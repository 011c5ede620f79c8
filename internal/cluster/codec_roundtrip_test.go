// Round-trip property tests for every artifact kind that crosses the peer
// wire: the value must survive encode → "ZATL" frame → verify → decode,
// and the decoded value must re-frame to byte-identical bytes. Byte
// stability is what lets any fleet member re-serve a fetched artifact —
// if a round trip perturbed the bytes, promotion would corrupt the fleet's
// content addressing one hop at a time.
package cluster_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"zatel/internal/combine"
	"zatel/internal/core"
	"zatel/internal/heatmap"
	"zatel/internal/metrics"
	"zatel/internal/rt"
	"zatel/internal/scene"
	"zatel/internal/store"
)

// frameRoundTrip runs one value through the full peer wire format and
// returns the re-decoded value; it fails the test unless the re-framed
// bytes match the original frame exactly.
func frameRoundTrip(t *testing.T, v any, wantKind string) any {
	t.Helper()
	data, kind, err := store.EncodeFramed(v)
	if err != nil {
		t.Fatalf("EncodeFramed: %v", err)
	}
	if kind != wantKind {
		t.Fatalf("EncodeFramed kind = %q, want %q", kind, wantKind)
	}
	got, size, kind2, err := store.DecodeFramed(data)
	if err != nil {
		t.Fatalf("DecodeFramed: %v", err)
	}
	if kind2 != wantKind {
		t.Fatalf("DecodeFramed kind = %q, want %q", kind2, wantKind)
	}
	if size <= 0 {
		t.Fatalf("DecodeFramed size = %d, want > 0", size)
	}
	again, _, err := store.EncodeFramed(got)
	if err != nil {
		t.Fatalf("re-EncodeFramed: %v", err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("%s: re-framed bytes differ from original (%d vs %d bytes); format is not canonical",
			wantKind, len(data), len(again))
	}
	return got
}

func TestFrameRoundTripWorkload(t *testing.T) {
	cases := []struct {
		scene     string
		w, h, spp int
	}{
		{"SPRNG", 16, 16, 1},
		{"PARK", 8, 12, 2},
		{"SPRNG", 32, 8, 1},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s_%dx%d_spp%d", tc.scene, tc.w, tc.h, tc.spp), func(t *testing.T) {
			s, err := scene.ByName(tc.scene)
			if err != nil {
				t.Fatalf("scene: %v", err)
			}
			w, err := rt.BuildWorkload(s, tc.w, tc.h, tc.spp)
			if err != nil {
				t.Fatalf("BuildWorkload: %v", err)
			}
			got := frameRoundTrip(t, w, "rt.workload/v1").(*rt.Workload)
			if got.Width != w.Width || got.Height != w.Height || got.SPP != w.SPP {
				t.Fatalf("shape mismatch after round trip: %dx%d spp=%d", got.Width, got.Height, got.SPP)
			}
			if got.Scene != w.Scene {
				t.Fatalf("scene mismatch: %q vs %q", got.Scene, w.Scene)
			}
			if !reflect.DeepEqual(w.Cost, got.Cost) {
				t.Fatal("cost map changed in round trip")
			}
		})
	}
}

func TestFrameRoundTripQuantized(t *testing.T) {
	cases := []struct {
		w, h   int
		levels []float64
	}{
		{4, 3, []float64{0.5, 1.25, 7.75}},
		{1, 1, []float64{42}},
		{16, 2, []float64{0, 0.001, 0.002, 1e9}},
	}
	for ci, tc := range cases {
		t.Run(fmt.Sprintf("case%d_%dx%d", ci, tc.w, tc.h), func(t *testing.T) {
			q := &heatmap.Quantized{
				Width:  tc.w,
				Height: tc.h,
				Levels: tc.levels,
				Index:  make([]int, tc.w*tc.h),
			}
			for i := range q.Index {
				q.Index[i] = (i*7 + ci) % len(q.Levels)
			}
			got := frameRoundTrip(t, q, "core.quant/v1").(*heatmap.Quantized)
			if !reflect.DeepEqual(q, got) {
				t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", q, got)
			}
		})
	}
}

// testPrediction is a prediction the predict codec accepts: every Table I
// metric, a replicated group, a group that failed after three attempts and
// the degradation that names it.
func testPrediction() *core.Result {
	iv := combine.GroupIntervals{
		metrics.IPC: {Mean: 1.5, Low: 1.2, High: 1.8, Replicates: 9},
	}
	predicted := make(combine.GroupValues)
	for i, m := range metrics.All() {
		predicted[m] = 0.5 * float64(i+1)
	}
	failure := new(core.GroupError)
	if err := failure.UnmarshalText([]byte("runner: injected failure")); err != nil {
		panic(err)
	}
	return &core.Result{
		Predicted: predicted,
		Intervals: iv,
		Groups: []core.GroupRun{
			{
				Report:     metrics.Report{Cycles: 9000, Instructions: 12600, WallTime: 80 * time.Millisecond},
				Fraction:   0.25,
				Pixels:     144,
				Selected:   36,
				WallTime:   90 * time.Millisecond,
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
				Err:      failure,
			},
		},
		K:              4,
		PreprocessTime: 12 * time.Millisecond,
		SimWallTime:    200 * time.Millisecond,
		TotalCPUTime:   800 * time.Millisecond,
		Degraded:       &core.Degradation{FailedGroups: []int{1}, Quorum: 1, Survivors: 1, Total: 2},
	}
}

func TestFrameRoundTripPredictResult(t *testing.T) {
	r := testPrediction()
	r.Quantized = &heatmap.Quantized{
		Width: 2, Height: 2,
		Levels: []float64{1, 2},
		Index:  []int{0, 1, 1, 0},
	}
	got := frameRoundTrip(t, r, "core.predict/v2").(*core.Result)
	if !reflect.DeepEqual(r.Predicted, got.Predicted) {
		t.Fatalf("Predicted mismatch: %+v vs %+v", r.Predicted, got.Predicted)
	}
	if !reflect.DeepEqual(r.Intervals, got.Intervals) {
		t.Fatalf("Intervals mismatch: %+v vs %+v", r.Intervals, got.Intervals)
	}
	// The heatmap travels as its own quant/v1 artifact, never inside a
	// prediction: what a peer fetches has none.
	if got.Quantized != nil {
		t.Fatal("Quantized crossed the wire inside a prediction")
	}
	if got.K != r.K || len(got.Groups) != len(r.Groups) {
		t.Fatalf("structure mismatch: K=%d groups=%d", got.K, len(got.Groups))
	}
	if got.Groups[1].Err == nil || got.Groups[1].Err.Error() != r.Groups[1].Err.Error() {
		t.Fatalf("group error lost: %v", got.Groups[1].Err)
	}
}

// TestFrameRejectsCorruptionPerKind: for every artifact kind, a corrupted
// frame from a peer must fail DecodeFramed — no kind has a decode path
// that tolerates tampering.
func TestFrameRejectsCorruptionPerKind(t *testing.T) {
	s, err := scene.ByName("SPRNG")
	if err != nil {
		t.Fatal(err)
	}
	w, err := rt.BuildWorkload(s, 8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	values := map[string]any{
		"rt.workload/v1": w,
		"core.quant/v1": &heatmap.Quantized{
			Width: 2, Height: 1, Levels: []float64{1, 2}, Index: []int{0, 1},
		},
		"core.predict/v2":   testPrediction(),
		"core.reference/v1": metrics.Report{Cycles: 1000, Instructions: 2500, DRAMBWUtil: 0.4, WallTime: time.Second},
	}
	for kind, v := range values {
		t.Run(kind, func(t *testing.T) {
			data, _, err := store.EncodeFramed(v)
			if err != nil {
				t.Fatalf("EncodeFramed: %v", err)
			}
			mutations := map[string][]byte{
				"payload bit flip": func() []byte {
					b := append([]byte(nil), data...)
					b[len(b)-1] ^= 0x01
					return b
				}(),
				"checksum bit flip": func() []byte {
					b := append([]byte(nil), data...)
					b[8+len(kind)+8] ^= 0x01 // inside the SHA-256 field
					return b
				}(),
				"truncation": data[:len(data)-2],
				"bad magic": func() []byte {
					b := append([]byte(nil), data...)
					b[0] = 'Q'
					return b
				}(),
			}
			for name, bad := range mutations {
				if _, _, _, err := store.DecodeFramed(bad); err == nil {
					t.Errorf("%s: DecodeFramed accepted a frame with %s", kind, name)
				}
			}
		})
	}
}
