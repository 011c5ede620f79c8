package metrics

import (
	"math"
	"testing"
)

func sample() Report {
	return Report{
		Cycles:            1000,
		Instructions:      4000,
		L1DAccesses:       200,
		L1DMisses:         50,
		L2Accesses:        50,
		L2Misses:          10,
		RTActiveRayCycles: 600,
		RTWarpSlotCycles:  100,
		DRAMEff:           0.8,
		DRAMBWUtil:        0.3,
	}
}

func TestAllCoversTableI(t *testing.T) {
	ms := All()
	if len(ms) != 7 {
		t.Fatalf("Table I has 7 metrics, All() has %d", len(ms))
	}
	names := map[string]bool{}
	for _, m := range ms {
		names[m.String()] = true
	}
	for _, want := range []string{
		"GPU IPC", "GPU Sim Cycles", "L1D Miss Rate", "L2 Miss Rate",
		"RT Avg Efficiency", "DRAM Efficiency", "BW Utilization",
	} {
		if !names[want] {
			t.Errorf("missing metric %q", want)
		}
	}
}

func TestReportValues(t *testing.T) {
	r := sample()
	cases := map[Metric]float64{
		IPC:             4,
		SimCycles:       1000,
		L1DMissRate:     0.25,
		L2MissRate:      0.2,
		RTAvgEfficiency: 6,
		DRAMEfficiency:  0.8,
		BWUtilization:   0.3,
	}
	for m, want := range cases {
		if got := r.Value(m); math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", m, got, want)
		}
	}
	vals := r.Values()
	if len(vals) != 7 {
		t.Errorf("Values() has %d entries", len(vals))
	}
}

func TestZeroDenominators(t *testing.T) {
	var r Report
	for _, m := range All() {
		v := r.Value(m)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("empty report %s = %v", m, v)
		}
	}
}

func TestAbsErr(t *testing.T) {
	if got := AbsErr(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("AbsErr(110,100) = %v", got)
	}
	if got := AbsErr(90, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("AbsErr(90,100) = %v", got)
	}
	if got := AbsErr(0, 0); got != 0 {
		t.Errorf("AbsErr(0,0) = %v", got)
	}
	if got := AbsErr(1, 0); !math.IsInf(got, 1) {
		t.Errorf("AbsErr(1,0) = %v", got)
	}
}

func TestErrorsAndMAE(t *testing.T) {
	ref := sample()
	pred := sample()
	pred.Cycles = 1100 // IPC 4000/1100, cycles +10%
	errs := Errors(pred, ref, All())
	if math.Abs(errs[SimCycles]-0.1) > 1e-12 {
		t.Errorf("cycles err %v", errs[SimCycles])
	}
	if errs[L1DMissRate] != 0 {
		t.Errorf("unchanged metric reported error %v", errs[L1DMissRate])
	}
	mae := MAE(errs, All())
	if mae <= 0 || mae > 0.1 {
		t.Errorf("MAE = %v", mae)
	}
	if MAE(nil, nil) != 0 {
		t.Error("empty MAE non-zero")
	}
}

func TestAbsoluteClassification(t *testing.T) {
	if !SimCycles.Absolute() {
		t.Error("SimCycles must be absolute")
	}
	for _, m := range []Metric{L1DMissRate, L2MissRate, RTAvgEfficiency, DRAMEfficiency, BWUtilization, IPC} {
		if m.Absolute() {
			t.Errorf("%s wrongly classified absolute", m)
		}
	}
}

// TestMetricText: every Table I metric round-trips through its name, and
// anything else is an error both ways.
func TestMetricText(t *testing.T) {
	for _, m := range All() {
		text, err := m.MarshalText()
		if err != nil || string(text) != m.String() {
			t.Errorf("%v.MarshalText() = %q, %v", m, text, err)
		}
		var back Metric = -1
		if err := back.UnmarshalText(text); err != nil || back != m {
			t.Errorf("UnmarshalText(%q) = %v, %v", text, back, err)
		}
	}
	for _, m := range []Metric{-1, 7} {
		if text, err := m.MarshalText(); err == nil {
			t.Errorf("Metric(%d).MarshalText() = %q, want an error", int(m), text)
		}
	}
	for _, name := range []string{"", "GPU", "gpu ipc", "Metric(7)", "GPU IPC "} {
		var m Metric
		if err := m.UnmarshalText([]byte(name)); err == nil {
			t.Errorf("UnmarshalText(%q) = %v, want an error", name, m)
		}
	}
}
