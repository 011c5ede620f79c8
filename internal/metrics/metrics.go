// Package metrics defines the evaluation metric set of Table I, the
// simulator's output report, and the error measures (absolute error, MAE)
// used throughout the paper's figures.
package metrics

import (
	"fmt"
	"math"
	"time"
)

// Metric identifies one of the Table I metrics.
type Metric int

const (
	// IPC is GPU instructions per cycle.
	IPC Metric = iota
	// SimCycles is the number of cycles required to ray trace the scene.
	SimCycles
	// L1DMissRate is the total cache miss rate over all L1D instances.
	L1DMissRate
	// L2MissRate is the total cache miss rate over all L2 instances.
	L2MissRate
	// RTAvgEfficiency is the average number of active rays per warp over
	// all ray-tracing accelerator units.
	RTAvgEfficiency
	// DRAMEfficiency is DRAM bandwidth utilization while requests are
	// pending.
	DRAMEfficiency
	// BWUtilization is DRAM bandwidth utilization over the whole run.
	BWUtilization

	numMetrics
)

// All returns every Table I metric in presentation order.
func All() []Metric {
	return []Metric{IPC, SimCycles, L1DMissRate, L2MissRate, RTAvgEfficiency, DRAMEfficiency, BWUtilization}
}

// String returns the Table I metric name.
func (m Metric) String() string {
	switch m {
	case IPC:
		return "GPU IPC"
	case SimCycles:
		return "GPU Sim Cycles"
	case L1DMissRate:
		return "L1D Miss Rate"
	case L2MissRate:
		return "L2 Miss Rate"
	case RTAvgEfficiency:
		return "RT Avg Efficiency"
	case DRAMEfficiency:
		return "DRAM Efficiency"
	case BWUtilization:
		return "BW Utilization"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// MarshalText returns the Table I name, so that metric-keyed maps encode
// with the names as keys (the core.predict/v2 format).
func (m Metric) MarshalText() ([]byte, error) {
	if m < 0 || m >= numMetrics {
		return nil, fmt.Errorf("metrics: no Table I metric %d", int(m))
	}
	return []byte(m.String()), nil
}

// UnmarshalText parses a Table I name; any other text is an error.
func (m *Metric) UnmarshalText(name []byte) error {
	for x := range numMetrics {
		if x.String() == string(name) {
			*m = x
			return nil
		}
	}
	return fmt.Errorf("metrics: unknown metric %q", name)
}

// Absolute reports whether the metric is an absolute quantity that Zatel
// extrapolates linearly with the traced-pixel fraction (Section III-G), as
// opposed to a rate that is encapsulated per group.
func (m Metric) Absolute() bool {
	return m == SimCycles
}

// Report is the complete output of one simulator run.
type Report struct {
	// Cycles is the simulated execution time in core clock cycles.
	Cycles uint64
	// Instructions is the total thread instructions executed.
	Instructions uint64
	// Warps is the number of warps launched.
	Warps int

	// L1D aggregates across all SM L1D instances.
	L1DAccesses uint64
	L1DMisses   uint64
	// L2 aggregates across all partition slices.
	L2Accesses uint64
	L2Misses   uint64

	// RTActiveRayCycles accumulates active-ray count × cycles; divided by
	// RTWarpSlotCycles (resident warps × cycles) it yields the average
	// active rays per warp.
	RTActiveRayCycles uint64
	RTWarpSlotCycles  uint64
	// RTRaysTraced counts rays completed by the RT units.
	RTRaysTraced uint64

	// DRAM aggregates across channels.
	DRAMReads         uint64
	DRAMBytesRead     uint64
	DRAMBusyCycles    uint64
	DRAMPendingCycles uint64
	// DRAMEff and DRAMBWUtil are the precomputed Table I DRAM metrics
	// (bandwidth-weighted over all channels).
	DRAMEff    float64
	DRAMBWUtil float64

	// WallTime is the host-side simulation time, used for speedup
	// measurements (the paper's Figs. 14, 15, 19).
	WallTime time.Duration
}

// Value returns the metric's value from the report.
func (r Report) Value(m Metric) float64 {
	switch m {
	case IPC:
		if r.Cycles == 0 {
			return 0
		}
		return float64(r.Instructions) / float64(r.Cycles)
	case SimCycles:
		return float64(r.Cycles)
	case L1DMissRate:
		return ratio(r.L1DMisses, r.L1DAccesses)
	case L2MissRate:
		return ratio(r.L2Misses, r.L2Accesses)
	case RTAvgEfficiency:
		return ratio(r.RTActiveRayCycles, r.RTWarpSlotCycles)
	case DRAMEfficiency:
		return r.DRAMEff
	case BWUtilization:
		return r.DRAMBWUtil
	default:
		return math.NaN()
	}
}

// Values returns all Table I metrics.
func (r Report) Values() map[Metric]float64 {
	out := make(map[Metric]float64, numMetrics)
	for _, m := range All() {
		out[m] = r.Value(m)
	}
	return out
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// AbsErr returns |pred−ref| / |ref|, the absolute (relative) error used by
// the paper's error figures. A zero reference with a non-zero prediction
// reports +Inf; zero/zero reports 0.
func AbsErr(pred, ref float64) float64 {
	if ref == 0 {
		if pred == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(pred-ref) / math.Abs(ref)
}

// Errors returns the per-metric absolute error of pred against ref.
func Errors(pred, ref Report, ms []Metric) map[Metric]float64 {
	out := make(map[Metric]float64, len(ms))
	for _, m := range ms {
		out[m] = AbsErr(pred.Value(m), ref.Value(m))
	}
	return out
}

// MAE returns the mean absolute error over the given metrics.
func MAE(errs map[Metric]float64, ms []Metric) float64 {
	if len(ms) == 0 {
		return 0
	}
	var sum float64
	for _, m := range ms {
		sum += errs[m]
	}
	return sum / float64(len(ms))
}
