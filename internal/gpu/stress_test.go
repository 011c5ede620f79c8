package gpu

import (
	"testing"

	"zatel/internal/rt"
)

// Stress tests for the structural-hazard paths: tiny MSHR files, divergent
// warps, store-heavy traffic. Each must complete (no deadlock) and shift
// timing in the physically expected direction.

func TestRTMSHRStallPathCompletes(t *testing.T) {
	traces := loadWorkload(t, "BUNNY", 32, 32, 1)
	roomy := testConfig()
	tight := testConfig()
	tight.RTMSHRSize = 2 // forces constant ray stalling
	repRoomy := runJob(t, roomy, traces)
	repTight := runJob(t, tight, traces)
	if repTight.Instructions != repRoomy.Instructions {
		t.Errorf("MSHR size changed instruction count: %d vs %d",
			repTight.Instructions, repRoomy.Instructions)
	}
	if repTight.Cycles <= repRoomy.Cycles {
		t.Errorf("2-entry RT MSHR (%d cycles) not slower than 64-entry (%d)",
			repTight.Cycles, repRoomy.Cycles)
	}
	if repTight.RTRaysTraced != repRoomy.RTRaysTraced {
		t.Errorf("rays lost under MSHR pressure: %d vs %d",
			repTight.RTRaysTraced, repRoomy.RTRaysTraced)
	}
}

func TestL1MSHRPressureCompletes(t *testing.T) {
	traces := loadWorkload(t, "CHSNT", 32, 32, 1)
	tight := testConfig()
	tight.L1DMSHRs = 2
	rep := runJob(t, tight, traces)
	if rep.Cycles == 0 || rep.RTRaysTraced == 0 {
		t.Fatalf("degenerate run under L1 MSHR pressure: %+v", rep)
	}
	roomy := runJob(t, testConfig(), traces)
	if rep.Cycles < roomy.Cycles {
		t.Errorf("2-entry L1 MSHR (%d cycles) faster than 64-entry (%d)",
			rep.Cycles, roomy.Cycles)
	}
}

func TestTinyRTWarpSlots(t *testing.T) {
	traces := loadWorkload(t, "SPNZA", 32, 32, 1)
	tight := testConfig()
	tight.RTMaxWarps = 1 // heavy rtQueue usage
	rep := runJob(t, tight, traces)
	roomy := runJob(t, testConfig(), traces)
	if rep.Instructions != roomy.Instructions {
		t.Errorf("RT warp slots changed instructions")
	}
	if rep.Cycles <= roomy.Cycles {
		t.Errorf("1 RT warp slot (%d cycles) not slower than 4 (%d)",
			rep.Cycles, roomy.Cycles)
	}
}

func TestDivergentWarpSerializes(t *testing.T) {
	// A warp whose lanes alternate between compute-only and load-only
	// streams must still execute every lane's instructions.
	traces := make([]rt.ThreadTrace, 32)
	for i := range traces {
		if i%2 == 0 {
			traces[i] = rt.NewTrace([]rt.Op{
				{Kind: rt.OpCompute, Arg: 10},
				{Kind: rt.OpCompute, Arg: 5}, // merged streams differ in shape
			})
		} else {
			traces[i] = rt.NewTrace([]rt.Op{
				{Kind: rt.OpLoad, Arg: uint32(0x1000 + i*128)},
				{Kind: rt.OpCompute, Arg: 7},
			})
		}
	}
	rep := runJob(t, testConfig(), traces)
	var want uint64
	for i := range traces {
		want += traces[i].Instructions()
	}
	if rep.Instructions != want {
		t.Errorf("divergent warp executed %d instructions, want %d", rep.Instructions, want)
	}
	// 16 distinct lines loaded.
	if rep.L1DAccesses != 16 {
		t.Errorf("L1 accesses = %d, want 16", rep.L1DAccesses)
	}
}

func TestStoreHeavyTraffic(t *testing.T) {
	// Stores are fire-and-forget: a store-only workload must finish almost
	// immediately and generate no DRAM reads.
	traces := make([]rt.ThreadTrace, 64)
	for i := range traces {
		ops := make([]rt.Op, 0, 20)
		for j := 0; j < 20; j++ {
			ops = append(ops, rt.Op{Kind: rt.OpStore, Arg: uint32(0x4000_0000 + (i*20+j)*16)})
		}
		traces[i] = rt.NewTrace(ops)
	}
	rep := runJob(t, testConfig(), traces)
	if rep.DRAMReads != 0 {
		t.Errorf("stores generated %d DRAM reads", rep.DRAMReads)
	}
	if rep.Instructions != 64*20 {
		t.Errorf("instructions = %d", rep.Instructions)
	}
	if rep.L1DAccesses != 0 {
		t.Errorf("stores counted as load accesses: %d", rep.L1DAccesses)
	}
}

func TestCoalescingReducesTraffic(t *testing.T) {
	// 32 lanes loading the same line must coalesce to one L1 access; 32
	// lanes loading distinct lines must not.
	same := make([]rt.ThreadTrace, 32)
	for i := range same {
		same[i] = rt.NewTrace([]rt.Op{{Kind: rt.OpLoad, Arg: 0x1000}})
	}
	spread := make([]rt.ThreadTrace, 32)
	for i := range spread {
		spread[i] = rt.NewTrace([]rt.Op{{Kind: rt.OpLoad, Arg: uint32(0x1000 + i*128)}})
	}
	repSame := runJob(t, testConfig(), same)
	repSpread := runJob(t, testConfig(), spread)
	if repSame.L1DAccesses != 1 {
		t.Errorf("coalesced warp made %d L1 accesses, want 1", repSame.L1DAccesses)
	}
	if repSpread.L1DAccesses != 32 {
		t.Errorf("spread warp made %d L1 accesses, want 32", repSpread.L1DAccesses)
	}
	if repSpread.Cycles <= repSame.Cycles {
		t.Errorf("uncoalesced warp (%d cycles) not slower than coalesced (%d)",
			repSpread.Cycles, repSame.Cycles)
	}
}

func TestGTOPrefersLastIssuedWarp(t *testing.T) {
	// Two warps of pure compute: under GTO the first warp should run to
	// completion with the second interleaved only at stalls. We assert the
	// scheduler-visible outcome: both policies finish, same instructions.
	traces := make([]rt.ThreadTrace, 64)
	for i := range traces {
		traces[i] = rt.NewTrace([]rt.Op{
			{Kind: rt.OpCompute, Arg: 3},
			{Kind: rt.OpCompute, Arg: 3},
		})
	}
	cfg := testConfig()
	cfg.NumSMs = 1
	cfg.NumMemPartitions = 1
	rep := runJob(t, cfg, traces)
	if rep.Instructions != 64*6 {
		t.Errorf("instructions = %d", rep.Instructions)
	}
	if rep.Warps != 2 {
		t.Errorf("warps = %d", rep.Warps)
	}
}

func TestManyWavesPerSM(t *testing.T) {
	// More warps than slots: the pending queue must drain through slot
	// reuse. 1 SM × 32 slots with 100 warps of work.
	traces := make([]rt.ThreadTrace, 3200)
	for i := range traces {
		traces[i] = rt.NewTrace([]rt.Op{{Kind: rt.OpCompute, Arg: 5}})
	}
	cfg := testConfig()
	cfg.NumSMs = 1
	cfg.NumMemPartitions = 1
	rep := runJob(t, cfg, traces)
	if rep.Warps != 100 {
		t.Errorf("warps = %d", rep.Warps)
	}
	if rep.Instructions != 3200*5 {
		t.Errorf("instructions = %d", rep.Instructions)
	}
}
