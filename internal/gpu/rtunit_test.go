package gpu

import (
	"testing"

	"zatel/internal/bvh"
	"zatel/internal/config"
	"zatel/internal/rt"
)

// longRays is a synthetic source of threads that each trace one ray of
// steps steps, with node(thread, step) naming each step's node (every
// step an interior one: one fetch, no triangle tests).
func longRays(threads, steps int, node func(thread, step int) int32) rt.TraceSlice {
	traces := make(rt.TraceSlice, threads)
	for i := range traces {
		packed := make([]uint32, steps)
		for k := range packed {
			packed[k] = rt.PackStep(node(i, k), 0)
		}
		traces[i] = rt.NewTrace([]rt.Op{{Kind: rt.OpTrace, Arg: 0}}, rt.RaySteps{Kind: rt.RayPrimary, Steps: packed})
	}
	return traces
}

// rtConformanceConfigs are the two downscaled groups Zatel simulates.
func rtConformanceConfigs(t *testing.T) []config.Config {
	t.Helper()
	var cfgs []config.Config
	for _, c := range []struct {
		full config.Config
		k    int
	}{{config.MobileSoC(), 4}, {config.RTX2060(), 6}} {
		d, err := c.full.Downscale(c.k)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, d)
	}
	return cfgs
}

// TestRTUnitConformance checks the RT unit against the two limits its
// configuration sets: RTRaysPerCycle, the steps it may issue per cycle, and
// RTMSHRSize, the fetches it may have outstanding.
//
//   - One tick with more ready rays than the budget issues exactly
//     RTRaysPerCycle steps, and with two-fetch steps against a three-entry
//     MSHR file it issues one and stalls the rest.
//   - Rays that fetch one node over and over (every fetch after an SM's
//     first hits in L1) take at most RTRaysPerCycle·NumSMs steps per
//     simulated cycle. (The LSU's one L1 access per cycle keeps this bound
//     end to end on its own; the tick check is the one that pins the
//     budget.)
//   - Rays whose every step fetches a new line take strictly more cycles
//     with 2 MSHRs than with 64.
func TestRTUnitConformance(t *testing.T) {
	for _, cfg := range rtConformanceConfigs(t) {
		t.Run(cfg.Name, func(t *testing.T) {
			budget := cfg.RTRaysPerCycle

			sim := newTestSim(t, cfg)
			s := sim.sms[0]
			u := &s.rt
			one := bvh.AppendStep(nil, 0, 0, 0)
			for i := 0; i < 3*budget; i++ {
				u.ready.push(u.allocRay(0, one))
			}
			sim.rtTick(s, 0)
			if issued := 3*budget - u.ready.len() - u.stalled.len(); issued != budget || u.outstanding != budget {
				t.Errorf("one tick issued %d steps (%d fetches outstanding), want RTRaysPerCycle = %d",
					issued, u.outstanding, budget)
			}

			small := cfg
			small.RTMSHRSize = 3
			sim = newTestSim(t, small)
			s = sim.sms[0]
			u = &s.rt
			leaf := bvh.AppendStep(nil, 0, 1, 4)
			for i := 0; i < budget; i++ {
				u.ready.push(u.allocRay(0, leaf))
			}
			sim.rtTick(s, 0)
			if u.outstanding != 2 || u.stalled.len() != budget-1 {
				t.Errorf("3 MSHRs, %d two-fetch rays: %d fetches outstanding, %d rays stalled; want 2 and %d",
					budget, u.outstanding, u.stalled.len(), budget-1)
			}

			const steps = 48
			threads := 2 * cfg.RTMaxWarps * cfg.WarpSize * cfg.NumSMs
			hits := longRays(threads, steps, func(int, int) int32 { return 0 })
			rep, err := Run(Job{Cfg: cfg, Source: hits})
			if err != nil {
				t.Fatal(err)
			}
			total := uint64(threads * steps)
			if bound := uint64(budget*cfg.NumSMs) * rep.Cycles; total > bound {
				t.Errorf("%d L1-hit steps in %d cycles: more than RTRaysPerCycle·NumSMs·Cycles = %d", total, rep.Cycles, bound)
			}
			if rep.L1DMisses > uint64(cfg.NumSMs) {
				t.Errorf("one-node rays missed L1 %d times, want at most one per SM", rep.L1DMisses)
			}

			// Four nodes share a 128-byte line, so stepping four nodes at a
			// time fetches a new line at every step. The rays cycle through
			// 2048 lines: four times what an L1 holds, so every fetch
			// misses it, and few enough that after the first pass the L2
			// serves them. The stream is then bound by fetch latency, not
			// by DRAM bandwidth, which would hide the MSHR limit.
			misses := longRays(threads, steps, func(i, k int) int32 { return int32(4 * ((i*steps + k) % 2048)) })
			cycles := map[int]uint64{}
			for _, mshr := range []int{2, 64} {
				c := cfg
				c.RTMSHRSize = mshr
				rep, err := Run(Job{Cfg: c, Source: misses})
				if err != nil {
					t.Fatal(err)
				}
				cycles[mshr] = rep.Cycles
			}
			if cycles[2] <= cycles[64] {
				t.Errorf("miss-heavy rays: %d cycles with 2 RT MSHRs, %d with 64; want strictly more with 2",
					cycles[2], cycles[64])
			}
			t.Logf("L1-hit rays: %d steps in %d cycles; miss-heavy rays: %d cycles at 2 MSHRs, %d at 64",
				total, rep.Cycles, cycles[2], cycles[64])
		})
	}
}
