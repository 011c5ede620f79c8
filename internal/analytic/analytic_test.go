package analytic

import (
	"context"
	"math"
	"testing"

	"zatel/internal/config"
	"zatel/internal/rt"
)

func synthetic(n int, computePerThread uint32) []rt.ThreadTrace {
	traces := make([]rt.ThreadTrace, n)
	for i := range traces {
		traces[i] = rt.NewTrace([]rt.Op{
			{Kind: rt.OpCompute, Arg: computePerThread},
			{Kind: rt.OpLoad, Arg: 0x1000},
			{Kind: rt.OpStore, Arg: 0x2000},
		})
	}
	return traces
}

func TestPredictValidation(t *testing.T) {
	if _, err := Predict(config.MobileSoC(), nil); err == nil {
		t.Error("empty traces accepted")
	}
	bad := config.MobileSoC()
	bad.NumSMs = 0
	if _, err := Predict(bad, synthetic(32, 10)); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestPredictBasicShape(t *testing.T) {
	p, err := Predict(config.MobileSoC(), synthetic(4096, 50))
	if err != nil {
		t.Fatal(err)
	}
	if p.Cycles <= 0 || math.IsNaN(p.Cycles) {
		t.Errorf("cycles %v", p.Cycles)
	}
	if p.IPC <= 0 {
		t.Errorf("IPC %v", p.IPC)
	}
	if p.Instructions != 4096*52 {
		t.Errorf("instructions %d", p.Instructions)
	}
	if p.CPIBase <= 0 || p.CPIMem <= 0 {
		t.Errorf("CPI stack %v/%v/%v", p.CPIBase, p.CPIMem, p.CPIRT)
	}
	if p.CPIRT != 0 {
		t.Errorf("RT component %v for a workload without rays", p.CPIRT)
	}
}

func TestMoreWorkMoreCycles(t *testing.T) {
	small, err := Predict(config.MobileSoC(), synthetic(4096, 10))
	if err != nil {
		t.Fatal(err)
	}
	big, err := Predict(config.MobileSoC(), synthetic(4096, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if big.Cycles <= small.Cycles {
		t.Errorf("100x compute did not increase cycles: %v vs %v", big.Cycles, small.Cycles)
	}
}

func TestBiggerGPUFewerCycles(t *testing.T) {
	traces := synthetic(64*1024, 50)
	soc, err := Predict(config.MobileSoC(), traces)
	if err != nil {
		t.Fatal(err)
	}
	rtx, err := Predict(config.RTX2060(), traces)
	if err != nil {
		t.Fatal(err)
	}
	if rtx.Cycles >= soc.Cycles {
		t.Errorf("RTX 2060 (%v cycles) not faster than SoC (%v)", rtx.Cycles, soc.Cycles)
	}
}

func TestRTWorkCharged(t *testing.T) {
	traces := make([]rt.ThreadTrace, 64)
	for i := range traces {
		traces[i] = rt.NewTrace([]rt.Op{{Kind: rt.OpTrace, Arg: 0}},
			rt.RaySteps{Kind: rt.RayPrimary, Steps: []uint32{rt.PackStep(1, 0), rt.PackStep(2, 4)}})
	}
	p, err := Predict(config.MobileSoC(), traces)
	if err != nil {
		t.Fatal(err)
	}
	if p.CPIRT <= 0 {
		t.Errorf("traversal workload charged no RT time")
	}
}

func TestAnalyticOnRealWorkload(t *testing.T) {
	// The model must produce finite, positive predictions on a real
	// traced scene; accuracy against the cycle-level simulator is the
	// analytic row of `sweep ablations`, where high error is the expected
	// (and paper-matching) outcome.
	wl, err := rt.CachedWorkloadContext(context.Background(), "SPRNG", 48, 48, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Predict(config.MobileSoC(), wl.Traces)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cycles <= 0 || math.IsInf(p.IPC, 0) || p.CPIRT <= 0 {
		t.Errorf("degenerate prediction %+v", p)
	}
}
