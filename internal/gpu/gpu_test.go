package gpu

import (
	"context"
	"testing"

	"zatel/internal/config"
	"zatel/internal/metrics"
	"zatel/internal/rt"
)

func testConfig() config.Config {
	c := config.MobileSoC()
	c.Name = "test"
	c.NumSMs = 2
	c.NumMemPartitions = 2
	return c
}

func loadWorkload(t testing.TB, name string, w, h, spp int) []rt.ThreadTrace {
	t.Helper()
	wl, err := rt.CachedWorkloadContext(context.Background(), name, w, h, spp)
	if err != nil {
		t.Fatal(err)
	}
	return wl.Traces
}

func runJob(t testing.TB, cfg config.Config, traces []rt.ThreadTrace) metrics.Report {
	t.Helper()
	rep, err := Run(Job{Cfg: cfg, Traces: traces})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestRunRejectsBadJobs(t *testing.T) {
	if _, err := Run(Job{Cfg: testConfig()}); err == nil {
		t.Error("empty trace list accepted")
	}
	bad := testConfig()
	bad.NumSMs = 0
	if _, err := Run(Job{Cfg: bad, Traces: make([]rt.ThreadTrace, 1)}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestSyntheticComputeOnly(t *testing.T) {
	// 32 identical compute-only threads form one warp: cycles ≈ arg and
	// instructions = 32 × arg.
	traces := make([]rt.ThreadTrace, 32)
	for i := range traces {
		traces[i] = rt.NewTrace([]rt.Op{{Kind: rt.OpCompute, Arg: 100}})
	}
	rep := runJob(t, testConfig(), traces)
	if rep.Instructions != 3200 {
		t.Errorf("instructions = %d, want 3200", rep.Instructions)
	}
	if rep.Cycles < 100 || rep.Cycles > 110 {
		t.Errorf("cycles = %d, want ~100", rep.Cycles)
	}
	if rep.Warps != 1 {
		t.Errorf("warps = %d", rep.Warps)
	}
}

func TestEmptyThreadsRetire(t *testing.T) {
	// Threads with no ops (and a partial final warp) must still retire.
	traces := make([]rt.ThreadTrace, 40)
	rep := runJob(t, testConfig(), traces)
	if rep.Warps != 2 {
		t.Errorf("warps = %d, want 2", rep.Warps)
	}
	if rep.Instructions != 0 {
		t.Errorf("instructions = %d", rep.Instructions)
	}
}

func TestFilteredTracesAreCheap(t *testing.T) {
	full := loadWorkload(t, "SPNZA", 32, 32, 1)
	filtered := make([]rt.ThreadTrace, len(full))
	for i := range filtered {
		filtered[i] = rt.FilteredTrace()
	}
	repFull := runJob(t, testConfig(), full)
	repFiltered := runJob(t, testConfig(), filtered)
	if repFiltered.Cycles*10 > repFull.Cycles {
		t.Errorf("filtered run %d cycles not ≪ full run %d", repFiltered.Cycles, repFull.Cycles)
	}
	if repFiltered.L1DAccesses != 0 {
		t.Errorf("filtered run touched memory %d times", repFiltered.L1DAccesses)
	}
}

func TestInstructionConservation(t *testing.T) {
	traces := loadWorkload(t, "SPRNG", 32, 32, 1)
	var want uint64
	for i := range traces {
		want += traces[i].Instructions()
	}
	rep := runJob(t, testConfig(), traces)
	if rep.Instructions != want {
		t.Errorf("instructions = %d, functional count = %d", rep.Instructions, want)
	}
	if rep.RTRaysTraced == 0 {
		t.Error("no rays traced")
	}
}

func TestDeterminism(t *testing.T) {
	traces := loadWorkload(t, "CHSNT", 24, 24, 1)
	a := runJob(t, testConfig(), traces)
	b := runJob(t, testConfig(), traces)
	a.WallTime, b.WallTime = 0, 0
	if a != b {
		t.Errorf("two runs differ:\n%+v\n%+v", a, b)
	}
}

func TestMetricsWithinBounds(t *testing.T) {
	traces := loadWorkload(t, "BUNNY", 32, 32, 1)
	rep := runJob(t, config.MobileSoC(), traces)
	vals := rep.Values()
	if v := vals[metrics.L1DMissRate]; v < 0 || v > 1 {
		t.Errorf("L1D miss rate %v", v)
	}
	if v := vals[metrics.L2MissRate]; v < 0 || v > 1 {
		t.Errorf("L2 miss rate %v", v)
	}
	if v := vals[metrics.RTAvgEfficiency]; v < 0 || v > 32 {
		t.Errorf("RT efficiency %v", v)
	}
	if v := vals[metrics.DRAMEfficiency]; v < 0 || v > 1.0001 {
		t.Errorf("DRAM efficiency %v", v)
	}
	if v := vals[metrics.BWUtilization]; v < 0 || v > vals[metrics.DRAMEfficiency]+1e-9 {
		t.Errorf("BW utilization %v > efficiency %v", v, vals[metrics.DRAMEfficiency])
	}
	if vals[metrics.IPC] <= 0 || vals[metrics.SimCycles] <= 0 {
		t.Errorf("IPC/cycles non-positive: %v / %v", vals[metrics.IPC], vals[metrics.SimCycles])
	}
}

func TestMoreSMsRunFaster(t *testing.T) {
	traces := loadWorkload(t, "SPNZA", 48, 48, 1)
	small := testConfig()
	small.NumSMs = 2
	small.NumMemPartitions = 2
	big := testConfig()
	big.NumSMs = 8
	big.NumMemPartitions = 4
	repSmall := runJob(t, small, traces)
	repBig := runJob(t, big, traces)
	if repBig.Cycles >= repSmall.Cycles {
		t.Errorf("8-SM GPU (%d cycles) not faster than 2-SM (%d cycles)",
			repBig.Cycles, repSmall.Cycles)
	}
}

func TestRTX2060BeatsMobileSoC(t *testing.T) {
	traces := loadWorkload(t, "BUNNY", 48, 48, 1)
	soc := runJob(t, config.MobileSoC(), traces)
	rtx := runJob(t, config.RTX2060(), traces)
	if rtx.Cycles >= soc.Cycles {
		t.Errorf("RTX 2060 (%d cycles) not faster than Mobile SoC (%d)", rtx.Cycles, soc.Cycles)
	}
	if rtx.Value(metrics.IPC) <= soc.Value(metrics.IPC) {
		t.Errorf("RTX 2060 IPC %v not above SoC %v",
			rtx.Value(metrics.IPC), soc.Value(metrics.IPC))
	}
}

func TestSchedulerAblation(t *testing.T) {
	traces := loadWorkload(t, "SPRNG", 32, 32, 1)
	gto := testConfig()
	rr := testConfig()
	rr.Scheduler = config.RoundRobin
	repGTO := runJob(t, gto, traces)
	repRR := runJob(t, rr, traces)
	// Both must complete all work identically in functional terms.
	if repGTO.Instructions != repRR.Instructions {
		t.Errorf("instruction counts differ across schedulers: %d vs %d",
			repGTO.Instructions, repRR.Instructions)
	}
	if repRR.Cycles == 0 || repGTO.Cycles == 0 {
		t.Error("zero cycles")
	}
}

func TestSmallerL1RaisesMissRate(t *testing.T) {
	traces := loadWorkload(t, "PARK", 32, 32, 1)
	big := testConfig()
	small := testConfig()
	small.L1DBytes = 4 << 10
	repBig := runJob(t, big, traces)
	repSmall := runJob(t, small, traces)
	if repSmall.Value(metrics.L1DMissRate) <= repBig.Value(metrics.L1DMissRate) {
		t.Errorf("4KB L1 miss rate %v not above 64KB %v",
			repSmall.Value(metrics.L1DMissRate), repBig.Value(metrics.L1DMissRate))
	}
}

func TestAgeHeapOrdering(t *testing.T) {
	ages := map[int32]int64{0: 5, 1: 3, 2: 8, 3: 1, 4: 9}
	var h ageHeap
	for s, a := range ages {
		h.push(s, a)
	}
	want := []int32{3, 1, 0, 2, 4}
	for i, w := range want {
		if got := h.pop(); got != w {
			t.Fatalf("pop %d = slot %d, want %d", i, got, w)
		}
	}
}

func TestAgeHeapRemove(t *testing.T) {
	var h ageHeap
	h.push(0, 5)
	h.push(1, 3)
	h.push(2, 8)
	if !h.remove(1) {
		t.Fatal("remove failed")
	}
	if h.remove(1) {
		t.Fatal("double remove succeeded")
	}
	if got := h.pop(); got != 0 {
		t.Errorf("pop after remove = %d, want 0", got)
	}
	h.clear()
	if h.len() != 0 {
		t.Errorf("len after clear = %d", h.len())
	}
}
