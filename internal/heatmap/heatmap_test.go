package heatmap

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"zatel/internal/rt"
)

func TestFromCostValidation(t *testing.T) {
	if _, err := FromCost([]float64{1, 2}, 3, 1); err == nil {
		t.Error("mismatched length accepted")
	}
	if _, err := FromCost([]float64{1}, 0, 1); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := FromCost([]float64{-1}, 1, 1); err == nil {
		t.Error("negative cost accepted")
	}
	// A profile decoded from a peer may hold any float; K-means needs
	// finite temperatures. Before and after the largest cost.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, cost := range [][]float64{{bad, 1}, {1, bad}} {
			if _, err := FromCost(cost, 2, 1); err == nil || !strings.Contains(err.Error(), "non-finite") {
				t.Errorf("FromCost(%v) error %v, want a non-finite cost error", cost, err)
			}
		}
	}
}

func TestFromCostNormalises(t *testing.T) {
	h, err := FromCost([]float64{0, 5, 10, 2.5}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0.5, 1, 0.25}
	for i, w := range want {
		if math.Abs(h.Temp[i]-w) > 1e-12 {
			t.Errorf("temp[%d] = %v, want %v", i, h.Temp[i], w)
		}
	}
}

func TestFromCostAllZero(t *testing.T) {
	h, err := FromCost([]float64{0, 0}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h.Temp[0] != 0 || h.Temp[1] != 0 {
		t.Errorf("all-zero cost gave %v", h.Temp)
	}
}

func TestQuantizeLevelsOrderedAndIndexed(t *testing.T) {
	cost := make([]float64, 64)
	for i := range cost {
		cost[i] = float64(i % 4) // 4 distinct cost levels
	}
	h, err := FromCost(cost, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	q, err := h.Quantize(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Levels) != 4 {
		t.Fatalf("levels = %v", q.Levels)
	}
	for i := 1; i < len(q.Levels); i++ {
		if q.Levels[i] < q.Levels[i-1] {
			t.Fatalf("levels not ascending: %v", q.Levels)
		}
	}
	for i := range cost {
		if q.Index[i] != int(cost[i]) {
			t.Fatalf("pixel %d (cost %v) at level %d", i, cost[i], q.Index[i])
		}
	}
}

func TestColdAndWarmthComplement(t *testing.T) {
	h, err := FromCost([]float64{1, 2, 3, 4}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	q, err := h.Quantize(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range q.Index {
		cold := q.Cold(i)
		warm := q.Warmth(q.Index[i])
		if math.Abs(cold+warm-1) > 1e-12 {
			t.Errorf("pixel %d: cold %v + warmth %v != 1", i, cold, warm)
		}
		if cold < 0 || cold > 1 {
			t.Errorf("cold out of range: %v", cold)
		}
	}
	// The hottest pixel must be the least cold.
	if q.Cold(3) >= q.Cold(0) {
		t.Errorf("hottest pixel colder than coldest: %v vs %v", q.Cold(3), q.Cold(0))
	}
}

func TestGradientMonotoneWarmth(t *testing.T) {
	// The gradient must order as black→blue→...→red→white; we check the
	// perceptual proxy r-b difference grows with temperature in the warm
	// half and that endpoints are black and white.
	r, g, b := GradientRGB(0)
	if r != 0 || g != 0 || b != 0 {
		t.Errorf("t=0 not black: %d,%d,%d", r, g, b)
	}
	r, g, b = GradientRGB(1)
	if r != 255 || g != 255 || b != 255 {
		t.Errorf("t=1 not white: %d,%d,%d", r, g, b)
	}
	// Cool temperatures are blue-dominant, warm are red-dominant.
	r, _, b = GradientRGB(0.2)
	if b <= r {
		t.Errorf("t=0.2 not blue-dominant: r=%d b=%d", r, b)
	}
	r, _, b = GradientRGB(0.8)
	if r <= b {
		t.Errorf("t=0.8 not red-dominant: r=%d b=%d", r, b)
	}
	// Out-of-range inputs clamp.
	if r1, g1, b1 := GradientRGB(-5); r1 != 0 || g1 != 0 || b1 != 0 {
		t.Error("negative temperature not clamped")
	}
}

func TestWritePPM(t *testing.T) {
	h, err := FromCost([]float64{0, 1, 0.5, 0.25}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := h.WritePPM(&buf); err != nil {
		t.Fatal(err)
	}
	want := len("P6\n2 2\n255\n") + 2*2*3
	if buf.Len() != want {
		t.Errorf("PPM size %d, want %d", buf.Len(), want)
	}
	q, err := h.Quantize(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := q.WritePPM(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != want {
		t.Errorf("quantized PPM size %d, want %d", buf.Len(), want)
	}
}

func TestWorkloadHeatmapCharacterisation(t *testing.T) {
	// SHIP's heatmap must be mostly cold; BUNNY's mostly warm — the scene
	// properties Table III's analysis rests on.
	meanTemp := func(name string) float64 {
		w, err := rt.CachedWorkloadContext(context.Background(), name, 48, 48, 1)
		if err != nil {
			t.Fatal(err)
		}
		h, err := FromCost(w.Cost, w.Width, w.Height)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, v := range h.Temp {
			sum += v
		}
		return sum / float64(len(h.Temp))
	}
	ship, bunny := meanTemp("SHIP"), meanTemp("BUNNY")
	if ship >= bunny {
		t.Errorf("SHIP mean temp %v not below BUNNY %v", ship, bunny)
	}
}
