// Package analytic implements an interval-analysis performance model in
// the style of GPUMech/GCoM — the class of analytical GPU models the paper
// compares Zatel against (Section IV-B; LumiBench showed they "cannot
// capture the complexity of ray tracing workloads"). It predicts cycles
// and IPC from aggregate trace statistics and steady-state hardware
// equations, with no cycle-level simulation.
//
// The model exists as the comparison baseline: its errors on the ray
// tracing suite demonstrate why Zatel keeps a cycle-level simulator in the
// loop. Like GCoM, it only produces a CPI-style decomposition — the cache,
// RT-unit and DRAM metrics of Table I are out of its reach, which is the
// paper's other argument against analytical models.
package analytic

import (
	"fmt"

	"zatel/internal/config"
	"zatel/internal/rt"
)

// Prediction is the analytical model's output: total cycles, IPC and the
// CPI stack it derives them from.
type Prediction struct {
	Cycles       float64
	IPC          float64
	Instructions uint64
	// CPI stack components: cycles attributed per representative warp to
	// issue/ALU work, exposed memory latency and exposed RT-unit latency.
	CPIBase float64
	CPIMem  float64
	CPIRT   float64
}

// missRatio is the model's flat L1 miss estimate. Interval models derive
// this from reuse-distance profiles of the sampled trace; a fixed
// ray-tracing-typical value stands in (and is one of the reasons such
// models struggle on divergent traversal workloads).
const missRatio = 0.15

// Predict runs interval analysis over the workload's traces for the given
// configuration.
//
// It follows the usual three steps: (1) collect the aggregate profile
// (instruction mix, memory operations, traversal work), (2) compute a
// representative warp's interval time from hardware latencies with an
// occupancy-derived latency-hiding factor, (3) scale by the number of
// warp waves across the SMs.
func Predict(cfg config.Config, traces []rt.ThreadTrace) (Prediction, error) {
	if err := cfg.Validate(); err != nil {
		return Prediction{}, err
	}
	if len(traces) == 0 {
		return Prediction{}, fmt.Errorf("analytic: no threads")
	}

	// Step 1: aggregate profile.
	var instr, computeOps, loads, stores, nodes, triTests uint64
	for _, t := range traces {
		instr += t.Instructions()
		for j := range t.NumOps() {
			switch op := t.Op(j); op.Kind {
			case rt.OpCompute:
				computeOps += uint64(op.Arg)
			case rt.OpLoad:
				loads++
			case rt.OpStore:
				stores++
			}
		}
		n, tt := t.TraversalWork()
		nodes += n
		triTests += tt
	}

	warps := (len(traces) + cfg.WarpSize - 1) / cfg.WarpSize
	perWarp := func(x uint64) float64 { return float64(x) / float64(warps) }

	// Step 2: representative-warp interval time.
	//
	// Issue/ALU: SIMT lanes run compute in lockstep (divide by the warp
	// width); each memory instruction issues once per warp.
	base := perWarp(computeOps)/float64(cfg.WarpSize) + perWarp(loads+stores)

	// Memory: each load is charged the average hierarchy latency.
	memLat := float64(cfg.L1DLatency) +
		missRatio*float64(cfg.L2Latency+2*cfg.NoCLatency) +
		missRatio*missRatio*200 // DRAM tail
	mem := perWarp(loads) * memLat

	// RT unit: each traversal step fetches a node and runs the box or
	// triangle pipeline, processed RTRaysPerCycle rays at a time.
	rtTime := (perWarp(nodes)*(memLat/4+float64(cfg.RTBoxCycles)) +
		perWarp(triTests)*float64(cfg.RTTriCycles)) / float64(cfg.RTRaysPerCycle)

	// Latency hiding: with R resident warps per SM, a stalled warp's
	// latency is overlapped by the other R−1.
	resident := float64(cfg.MaxWarpsPerSM)
	if w := float64(warps) / float64(cfg.NumSMs); w < resident {
		resident = w
	}
	if resident < 1 {
		resident = 1
	}
	hiding := 1 / resident

	cpiMem := mem * hiding
	cpiRT := rtTime * hiding
	warpTime := base + cpiMem + cpiRT

	// Step 3: scale to the whole grid. Each SM retires its resident warps
	// at IssuePerCycle warp-instructions per cycle and runs `waves`
	// batches of them.
	waves := float64(warps) / (float64(cfg.NumSMs) * float64(cfg.MaxWarpsPerSM))
	if waves < 1 {
		waves = 1
	}
	cycles := warpTime * waves * resident / float64(cfg.IssuePerCycle)
	if cycles < 1 {
		cycles = 1
	}

	return Prediction{
		Cycles:       cycles,
		IPC:          float64(instr) / cycles,
		Instructions: instr,
		CPIBase:      base,
		CPIMem:       cpiMem,
		CPIRT:        cpiRT,
	}, nil
}
