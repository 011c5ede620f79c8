package extrapolate

import (
	"fmt"
	"math"
)

// Interval is a two-sided confidence interval around an extrapolated
// estimate. Zero-width intervals (Low == High == Mean) arise from a single
// replicate or perfectly agreeing replicates.
type Interval struct {
	// Mean is the point estimate: the mean of the per-replicate
	// extrapolations.
	Mean float64 `json:"mean"`
	// Low and High bound the confidence interval.
	Low  float64 `json:"low"`
	High float64 `json:"high"`
	// Replicates is the number of sub-draws the interval was computed from.
	Replicates int `json:"replicates"`
}

// HalfWidth returns the interval's half-width (High−Low)/2.
func (iv Interval) HalfWidth() float64 { return (iv.High - iv.Low) / 2 }

// ReplicateInterval builds a Student-t confidence interval from independent
// per-replicate estimates — the repeated-subsampling construction: each
// disjoint sub-draw yields its own extrapolated value, the mean of those
// values is the estimate, and their spread (s/√R, df = R−1) gives the
// interval. confidence must be one of 0.90, 0.95 or 0.99 (the tabulated
// levels). A single replicate yields a degenerate zero-width interval.
func ReplicateInterval(estimates []float64, confidence float64) (Interval, error) {
	r := len(estimates)
	if r == 0 {
		return Interval{}, fmt.Errorf("extrapolate: no replicate estimates")
	}
	var mean float64
	for _, e := range estimates {
		mean += e
	}
	mean /= float64(r)
	if r == 1 {
		return Interval{Mean: mean, Low: mean, High: mean, Replicates: 1}, nil
	}
	var ss float64
	for _, e := range estimates {
		d := e - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(r-1))
	t, err := tCritical(r-1, confidence)
	if err != nil {
		return Interval{}, err
	}
	h := t * sd / math.Sqrt(float64(r))
	return Interval{Mean: mean, Low: mean - h, High: mean + h, Replicates: r}, nil
}

// LinearReplicates extrapolates each replicate's measured value by its own
// realized fraction (value/fraction, the Section III-G estimator applied
// per sub-draw) and returns the t-interval over the extrapolated values.
// values and fractions must pair up one entry per replicate.
func LinearReplicates(values, fractions []float64, confidence float64) (Interval, error) {
	if len(values) != len(fractions) || len(values) == 0 {
		return Interval{}, fmt.Errorf("extrapolate: need matched non-empty values/fractions, got %d/%d", len(values), len(fractions))
	}
	ests := make([]float64, len(values))
	for i := range values {
		v, err := Linear(values[i], fractions[i])
		if err != nil {
			return Interval{}, fmt.Errorf("replicate %d: %w", i, err)
		}
		ests[i] = v
	}
	return ReplicateInterval(ests, confidence)
}

// tTable holds two-sided Student-t critical values for df 1–30 at the three
// supported confidence levels; beyond df 30 the normal quantile is close
// enough (<2% off) and is used as the tail value.
var tTable = map[float64][30]float64{
	0.90: {6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812,
		1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725,
		1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697},
	0.95: {12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042},
	0.99: {63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169,
		3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845,
		2.831, 2.819, 2.807, 2.797, 2.787, 2.779, 2.771, 2.763, 2.756, 2.750},
}

// normTail is the two-sided normal quantile used past df 30.
var normTail = map[float64]float64{0.90: 1.645, 0.95: 1.960, 0.99: 2.576}

// tCritical returns the two-sided Student-t critical value for df degrees
// of freedom at the given confidence level.
func tCritical(df int, confidence float64) (float64, error) {
	tab, ok := tTable[confidence]
	if !ok {
		return 0, fmt.Errorf("extrapolate: confidence %v unsupported (want 0.90, 0.95 or 0.99)", confidence)
	}
	if df < 1 {
		return 0, fmt.Errorf("extrapolate: degrees of freedom %d < 1", df)
	}
	if df <= len(tab) {
		return tab[df-1], nil
	}
	return normTail[confidence], nil
}
