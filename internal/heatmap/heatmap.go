// Package heatmap builds the per-pixel execution-time heatmap that drives
// Zatel's representative-pixel selection (steps 1 and 2 of the pipeline):
// per-pixel cost profiles are normalised to temperatures, mapped through a
// re-implementation of the NVIDIA heat gradient, and quantized with K-means
// to remove noise.
package heatmap

import (
	"fmt"
	"io"
	"math"

	"zatel/internal/kmeans"
)

// Heatmap is a normalised per-pixel temperature field. Temperature 1 is the
// most expensive pixel of the frame, 0 the cheapest possible.
type Heatmap struct {
	Width  int
	Height int
	// Temp holds row-major temperatures in [0,1].
	Temp []float64
}

// FromCost normalises a per-pixel cost profile (as produced by
// rt.Workload.Cost) into a heatmap. The profile is divided by the longest
// runtime, exactly as Section III-B describes. Negative, NaN and infinite
// costs are rejected: a profile decoded from a peer may hold any float,
// and the temperatures must lie in [0,1].
func FromCost(cost []float64, width, height int) (*Heatmap, error) {
	if width <= 0 || height <= 0 {
		return nil, fmt.Errorf("heatmap: invalid dimensions %dx%d", width, height)
	}
	if len(cost) != width*height {
		return nil, fmt.Errorf("heatmap: %d costs for %dx%d pixels", len(cost), width, height)
	}
	maxC := 0.0
	for _, c := range cost {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("heatmap: non-finite cost %v", c)
		}
		if c < 0 {
			return nil, fmt.Errorf("heatmap: negative cost %v", c)
		}
		if c > maxC {
			maxC = c
		}
	}
	h := &Heatmap{Width: width, Height: height, Temp: make([]float64, len(cost))}
	if maxC == 0 {
		return h, nil
	}
	for i, c := range cost {
		h.Temp[i] = c / maxC
	}
	return h, nil
}

// Quantized is a heatmap reduced to a small palette of temperature levels —
// the output of the colour-quantization step.
type Quantized struct {
	Width  int
	Height int
	// Levels holds the quantized temperatures in ascending (cold→hot)
	// order.
	Levels []float64
	// Index maps each pixel to its level.
	Index []int
}

// Quantize clusters the heatmap's temperatures into at most k levels using
// K-means (Section III-B's colour quantization).
func (h *Heatmap) Quantize(k int, seed uint64) (*Quantized, error) {
	res, err := kmeans.Cluster(h.Temp, k, seed, 25)
	if err != nil {
		return nil, fmt.Errorf("heatmap: quantize: %w", err)
	}
	return &Quantized{
		Width:  h.Width,
		Height: h.Height,
		Levels: res.Centers,
		Index:  res.Assign,
	}, nil
}

// Temp returns pixel i's quantized temperature.
func (q *Quantized) TempOf(i int) float64 { return q.Levels[q.Index[i]] }

// Cold returns pixel i's shifted-hue coldness c_i ∈ [0,1] used by Eq. 1:
// 0 means hot, 1 means cold.
func (q *Quantized) Cold(i int) float64 { return 1 - clamp01(q.TempOf(i)) }

// Warmth returns level j's warmth c'_j = 1 − c_j used by Eq. 2 and 3.
func (q *Quantized) Warmth(level int) float64 { return clamp01(q.Levels[level]) }

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// GradientRGB maps a temperature to the NVIDIA-style heat gradient:
// black → blue → cyan → green → yellow → red → white. The mapping is
// strictly monotone in temperature, so colour quantization and temperature
// quantization are interchangeable.
func GradientRGB(t float64) (r, g, b uint8) {
	t = clamp01(t)
	type stop struct {
		at      float64
		r, g, b float64
	}
	stops := []stop{
		{0.00, 0, 0, 0},
		{0.15, 0, 0, 255},
		{0.35, 0, 255, 255},
		{0.50, 0, 255, 0},
		{0.65, 255, 255, 0},
		{0.85, 255, 0, 0},
		{1.00, 255, 255, 255},
	}
	for i := 0; i < len(stops)-1; i++ {
		a, c := stops[i], stops[i+1]
		if t > c.at {
			continue
		}
		f := 0.0
		if c.at > a.at {
			f = (t - a.at) / (c.at - a.at)
		}
		return uint8(a.r + f*(c.r-a.r)), uint8(a.g + f*(c.g-a.g)), uint8(a.b + f*(c.b-a.b))
	}
	return 255, 255, 255
}

// WritePPM renders the heatmap as a binary PPM image.
func (h *Heatmap) WritePPM(w io.Writer) error {
	return writePPM(w, h.Width, h.Height, func(i int) float64 { return h.Temp[i] })
}

// WritePPM renders the quantized heatmap as a binary PPM image.
func (q *Quantized) WritePPM(w io.Writer) error {
	return writePPM(w, q.Width, q.Height, q.TempOf)
}

func writePPM(w io.Writer, width, height int, temp func(int) float64) error {
	if _, err := fmt.Fprintf(w, "P6\n%d %d\n255\n", width, height); err != nil {
		return err
	}
	buf := make([]byte, 0, width*3)
	for y := 0; y < height; y++ {
		buf = buf[:0]
		for x := 0; x < width; x++ {
			r, g, b := GradientRGB(temp(y*width + x))
			buf = append(buf, r, g, b)
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
