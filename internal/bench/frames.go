package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"
)

// frameWorkload is cold_frame, warm_sweep and adaptive_ci: each is a list
// of predictions over a few distinct frames, differing in which frames stay
// resident, which options the predictions carry and whether the harness
// evicts between them.
type frameWorkload struct {
	cfg Config
	// cold evicts the artifact store and the simulator pools (and collects
	// garbage) before every prediction, so each one pays scene-to-result
	// like a fresh `zatel -compare`. Otherwise the frames are built once in
	// set-up and every prediction starts warm.
	cold    bool
	frames  []frame
	configs []string
	inputs  []predictSpec // one pass, in the order the digest uses
	// warmup is what set-up predicts untimed on a warm workload: the
	// cheapest set that leaves nothing lazy for the timed predictions (the
	// quantized heatmap of every seed, the simulator pool of every
	// downscaled configuration). Where one of them is also an input, the
	// passes must reproduce what it returned.
	warmup []predictSpec

	frameMiB     float64
	builds       map[frame]time.Duration    // set-up's rt.BuildWorkload of each frame
	refs         map[refKey]reference       // set-up's full-configuration runs
	refWalls     map[refKey][]time.Duration // their wall time, one per set-up
	warm         map[predictSpec]values     // set-up's warm-up predictions
	setupDigests []string

	passes   []framePass
	problems []string
	repeats  int     // serial operations run again for want of a processor
	heapSum  float64 // cold only: live heap after each prediction
	heapN    int
}

type refKey struct {
	frame
	Config string
}

type framePass struct {
	preds  []prediction // by input index; zero Wall = failed
	probes []*probed    // by input index; nil = operation not traced
	failed int
}

// pipelineSeed is the j-th pipeline seed (quantization and pixel selection)
// of a run: the predictions are among the inputs -seed generates. The two
// numbers go through the splitmix64 finalizer so that neighbouring seeds do
// not start neighbouring random streams.
func pipelineSeed(seed uint64, j int) uint64 {
	x := seed*0x9e3779b97f4a7c15 + uint64(j) + 1
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return (x ^ x>>31) | 1 // never 0, which core reads as "default"
}

func newFrameWorkload(cfg Config) *frameWorkload {
	w := &frameWorkload{cfg: cfg, configs: []string{"mobile", "rtx2060"}, refWalls: make(map[refKey][]time.Duration)}
	switch cfg.Workload {
	case ColdFrame:
		w.cold = true
		scenes, sizes := sceneNames(), []int{96, 112, 128}
		if cfg.Smoke {
			scenes, sizes = []string{"SHIP", "SPRNG"}, []int{32}
		}
		for _, s := range scenes {
			for _, res := range sizes {
				w.frames = append(w.frames, frame{s, res})
			}
		}
		for _, f := range w.frames {
			for _, c := range w.configs {
				w.inputs = append(w.inputs, predictSpec{frame: f, Config: c, Parallel: true,
					Seed: pipelineSeed(cfg.Seed, len(w.inputs))})
			}
		}

	case WarmSweep:
		w.frames = []frame{{"PARK", 128}, {"BUNNY", 128}}
		percents := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
		dists := []string{"uniform", "lintmp", "exptmp"}
		seeds := 2
		if cfg.Smoke {
			w.frames = []frame{{"SPRNG", 32}}
			percents, dists, seeds = []float64{0.3, 0.9}, []string{"uniform", "exptmp"}, 1
		}
		for _, f := range w.frames {
			for _, c := range w.configs {
				for _, p := range percents {
					for _, d := range dists {
						for j := 0; j < seeds; j++ {
							w.inputs = append(w.inputs, predictSpec{frame: f, Config: c, Percent: p, Dist: d,
								Seed: pipelineSeed(cfg.Seed, j)})
						}
					}
				}
			}
		}
		w.warmup = warmupFor(cfg.Seed, w.frames, w.configs, seeds)

	case AdaptiveCI:
		// Each prediction is K x 5 x 3 simulator runs, half a second on
		// PARK, so a pass is 24 predictions and a run repeats it. Three
		// frames of three sizes, a third of the predictions each: the median
		// then lies inside the middle third and the 90th percentile inside
		// the top one. With two frames the median is the mean of the slowest
		// prediction of one and the fastest of the other.
		w.frames = []frame{{"PARK", 96}, {"BUNNY", 96}, {"WKND", 96}}
		seeds := 2
		if cfg.Smoke {
			w.frames, seeds = []frame{{"SPRNG", 32}}, 1
		}
		for _, f := range w.frames {
			for _, c := range w.configs {
				for _, d := range []string{"stratified", "rankedset"} {
					for j := 0; j < seeds; j++ {
						w.inputs = append(w.inputs, predictSpec{frame: f, Config: c, Dist: d, TargetCI: 0.10,
							Seed: pipelineSeed(cfg.Seed, j)})
					}
				}
			}
		}
		w.warmup = warmupFor(cfg.Seed, w.frames, w.configs, seeds)
	}
	return w
}

func warmupFor(seed uint64, frames []frame, configs []string, seeds int) []predictSpec {
	var out []predictSpec
	for _, f := range frames {
		for _, c := range configs {
			for j := 0; j < seeds; j++ {
				out = append(out, predictSpec{frame: f, Config: c, Percent: 0.1, Dist: "uniform", Seed: pipelineSeed(seed, j)})
			}
		}
	}
	return out
}

func (w *frameWorkload) setup(ctx context.Context, tr *tracer) error {
	evictArtifacts()
	w.frameMiB = 0
	w.refs = make(map[refKey]reference)
	w.warm = make(map[predictSpec]values)
	var dig digester
	for i, f := range w.frames {
		r, err := buildFrame(ctx, tr, noSpan, i, f, !w.cold)
		if err != nil {
			return err
		}
		w.frameMiB += mib(r.bytes())
		for _, c := range w.configs {
			if w.cold {
				evictArtifacts() // the full simulation a cold prediction is compared with is cold too
			}
			ref, repeats, err := r.reference(tr, i, c)
			if err != nil {
				return err
			}
			w.repeats += repeats
			w.refs[refKey{f, c}] = ref
			w.refWalls[refKey{f, c}] = append(w.refWalls[refKey{f, c}], ref.Wall)
			dig.add("ref %s %d %s %s", f.Scene, f.Res, c, ref.Repr)
		}
	}
	w.setupDigests = append(w.setupDigests, dig.sum())
	for _, sp := range w.warmup {
		pred, err := predict(ctx, sp)
		if err != nil {
			return err
		}
		w.warm[sp] = pred.Values
	}
	return nil
}

func (w *frameWorkload) teardown() { evictArtifacts() }

func (w *frameWorkload) pass(ctx context.Context, tr *tracer, n int) error {
	// Each pass visits the inputs in its own seeded order, so no input
	// always runs behind the same neighbour's cache and heap state.
	rng := rand.New(rand.NewSource(int64(w.cfg.Seed)<<8 + int64(n)))
	p := framePass{preds: make([]prediction, len(w.inputs)), probes: make([]*probed, len(w.inputs))}
	for _, i := range rng.Perm(len(w.inputs)) {
		if err := w.operate(ctx, tr.on(i, n), n, i, &p); err != nil {
			return err
		}
	}
	w.passes = append(w.passes, p)
	return ctx.Err()
}

// operate runs input i once: the timed prediction and, when traced, the
// probes of the layers behind it.
func (w *frameWorkload) operate(ctx context.Context, tr *tracer, n, i int, p *framePass) error {
	sp := w.inputs[i]
	op := tr.start("operation", noSpan, i) // the prediction, then its probes
	defer func() { tr.end(op, 0) }()
	var pred prediction
	for attempt := 0; ; attempt++ {
		if w.cold {
			evictArtifacts()
			runtime.GC()
		}
		id := tr.start("core.PredictContext", op, i)
		var err error
		pred, err = predict(ctx, sp)
		tr.end(id, 0)
		if err != nil {
			p.failed++
			w.problems = append(w.problems, fmt.Sprintf("pass %d input %d (%s %d %s): %v", n, i, sp.Scene, sp.Res, sp.Config, err))
			return nil
		}
		if sp.Parallel || pred.Busy >= minBusy || attempt == maxRepeats {
			break
		}
		w.repeats++
	}
	if tr != nil {
		probes, err := probeLayers(ctx, tr, op, i, sp, pred.result, w.cold)
		if err != nil {
			return fmt.Errorf("layer probes of input %d: %w", i, err)
		}
		if w.cold {
			// The trace a cold prediction starts with, built again from the
			// state the prediction built it from.
			evictArtifacts()
			runtime.GC()
			r, err := buildFrame(ctx, tr, op, i, sp.frame, false)
			if err != nil {
				return fmt.Errorf("trace probe of input %d: %w", i, err)
			}
			probes.Build = r.built
		}
		p.probes[i] = &probes
	}
	pred.result = nil
	p.preds[i] = pred
	if w.cold {
		// What stays live once the prediction is back. Sampled per
		// prediction because the shuffled order would otherwise decide
		// which frame's artifacts an end-of-run sample happens to see.
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		w.heapSum += mib(m.HeapAlloc)
		w.heapN++
	}
	return nil
}

func (w *frameWorkload) summarize(tr *tracer) summary {
	s := summary{problems: w.problems, repeats: w.repeats}
	if i := agree(w.setupDigests); i >= 0 {
		s.problems = append(s.problems, fmt.Sprintf("set-up repeat %d produced different reference reports than repeat 0", i))
	}
	var passDigests []string
	var walls []time.Duration
	var fullWall time.Duration
	for n, p := range w.passes {
		s.attempted += len(p.preds)
		s.failed += p.failed
		dig := digester{parts: []string{w.setupDigests[0]}}
		for i, pred := range p.preds {
			dig.add("pred %d %v", i, pred.Values)
			if pred.Wall == 0 {
				continue // failed; already counted
			}
			if want, ok := w.warm[w.inputs[i]]; ok && !slices.Equal(want, pred.Values) {
				s.problems = append(s.problems, fmt.Sprintf("pass %d input %d: %v differs from the set-up's prediction %v", n, i, pred.Values, want))
			}
			walls = append(walls, pred.Wall)
			// A reference is timed once per set-up; where set-up was
			// repeated, the median is its time.
			fullWall += percentile(w.refWalls[refKey{w.inputs[i].frame, w.inputs[i].Config}], 0.5)
		}
		passDigests = append(passDigests, dig.sum())
	}
	if i := agree(passDigests); i >= 0 {
		s.problems = append(s.problems, fmt.Sprintf("pass %d produced different results than pass 0", i))
	}
	s.digest = passDigests[0]

	// Pooled over all passes: every pass times the same inputs.
	s.samples = len(walls)
	s.perSecond = ratio(float64(len(walls)), sum(walls).Seconds())
	s.speedup = ratio(float64(fullWall), float64(sum(walls)))
	s.p50, s.p90 = percentile(walls, 0.5), percentile(walls, 0.9)

	for i, pred := range w.passes[0].preds {
		if pred.Wall != 0 {
			s.maePct += maePct(pred.Values, w.refs[refKey{w.inputs[i].frame, w.inputs[i].Config}].Values) / float64(len(w.inputs))
		}
	}
	if w.heapN > 0 {
		s.heapMiB = w.heapSum / float64(w.heapN)
	}
	if tr != nil {
		s.layers = w.layerMetrics(tr.finished())
	}
	return s
}

func (w *frameWorkload) layerMetrics(spans []span) map[string]float64 {
	m := make(map[string]float64)

	// rt.BuildWorkload builds the BVH itself; a traced run times the same
	// build separately right before each trace, so the i-th of one pairs
	// with the i-th of the other.
	bvhs, builds := named(spans, "bvh.Build"), named(spans, "rt.BuildWorkload")
	var traces []time.Duration
	var pixels int64
	for i := range builds {
		traces = append(traces, builds[i]-bvhs[i])
	}
	for _, s := range spans {
		if s.Name == "rt.BuildWorkload" {
			pixels += s.N
		}
	}
	m["bvh.build_ms"] = ms(percentile(bvhs, 0.5))
	m["rt.kpixels_per_s"] = ratio(float64(pixels)/1e3, sum(traces).Seconds())
	m["rt.trace_ms"] = ms(percentile(traces, 0.5))
	m["rt.workload_mib"] = w.frameMiB

	var small []time.Duration
	for _, s := range spans {
		if s.Name == "gpu.Run" && s.N < 1024 {
			small = append(small, s.dur())
		}
	}
	m["gpu.run_ms"] = ms(percentile(named(spans, "gpu.Run"), 0.5))
	m["gpu.cold_run_ms"] = ms(percentile(named(spans, "gpu.Run.cold"), 0.5))
	m["gpu.full_run_ms"] = ms(percentile(named(spans, "gpu.Run.full"), 0.5))
	m["gpu.small_run_us"] = us(percentile(small, 0.5))

	var l1a, l1m, fl2a, fl2m uint64
	var bw float64
	for _, r := range w.refs {
		l1a, l1m = l1a+r.L1DAccesses, l1m+r.L1DMisses
		fl2a, fl2m = fl2a+r.L2Accesses, fl2m+r.L2Misses
		bw += r.DRAMBWUtil / float64(len(w.refs))
	}
	m["gpu.l1d_miss_rate_full"] = ratio(float64(l1m), float64(l1a))
	m["gpu.l2_miss_rate_full"] = ratio(float64(fl2m), float64(fl2a))
	m["gpu.dram_bw_util_full"] = bw

	// From what core reported about its own predictions, and from the
	// probes of the traced ones.
	var (
		quantize, selects, replicates, combines []time.Duration
		pr                                      probed // summed over the traced operations
		nPreds, nGroups, gpuCalls, rounds       int
		ci                                      float64
		cycles, l2a, l2m                        uint64
		groupWall, queue, slots                 time.Duration
		covered                                 time.Duration
		opWall                                  [2]time.Duration // untraced, traced operations
		opCount                                 [2]int
	)
	workers := runtime.GOMAXPROCS(0)
	for n, p := range w.passes {
		for i, pred := range p.preds {
			if pred.Wall == 0 {
				continue
			}
			sp := w.inputs[i]
			nPreds++
			ci += pred.CIRel
			quantize = append(quantize, pred.Preprocess)
			var serial time.Duration
			for _, g := range pred.Groups {
				nGroups++
				gpuCalls += g.Runs
				rounds += g.Rounds
				serial += g.Wall
				l2a, l2m = l2a+g.L2Accesses, l2m+g.L2Misses
				if n == 0 {
					cycles += g.Cycles
				}
				if sp.Parallel {
					groupWall += g.Wall
					queue += g.Queue
				}
			}
			if sp.Parallel {
				slots += time.Duration(min(workers, len(pred.Groups))) * pred.SimWall
			}
			pb := p.probes[i]
			if pb == nil {
				opWall[0] += pred.Wall
				opCount[0]++
				continue
			}
			opWall[1] += pred.Wall
			opCount[1]++
			selects = append(selects, pb.Select)
			replicates = append(replicates, pb.Replicates)
			combines = append(combines, pb.Combine)
			pr.RunWall += pb.RunWall
			pr.Cycles += pb.Cycles
			pr.Instructions += pb.Instructions
			pr.Mallocs += pb.Mallocs
			pr.MallocRuns += pb.MallocRuns
			pr.Realized += pb.Realized
			pr.Requested += pb.Requested

			// What of this prediction's wall time the layers account for.
			// The simulation and preprocessing terms are this execution's
			// own, as core reported them; the trace, division, selection
			// and merge terms are the probes' executions of the same calls.
			// A replicated group's time already holds its selections.
			sim := serial
			if sp.Parallel {
				sim = pred.SimWall
			}
			covered += pb.Build + pred.Preprocess + pb.Partition + pb.Select + sim + pb.Combine
		}
	}
	m["kmeans.quantize_ms"] = ms(percentile(quantize, 0.5))
	m["sampling.select_ms"] = ms(percentile(selects, 0.5))
	m["sampling.replicates_ms"] = ms(percentile(replicates, 0.5))
	m["sampling.realized_fraction"] = ratio(pr.Realized, pr.Requested)
	m["combine.merge_us"] = us(percentile(combines, 0.5))
	m["gpu.sim_mcycles_per_s"] = ratio(float64(pr.Cycles)/1e6, pr.RunWall.Seconds())
	m["gpu.minstr_per_s"] = ratio(float64(pr.Instructions)/1e6, pr.RunWall.Seconds())
	m["gpu.allocs_per_run"] = ratio(float64(pr.Mallocs), float64(pr.MallocRuns))
	m["gpu.sim_cycles_total"] = float64(cycles)
	m["gpu.l2_miss_rate_groups"] = ratio(float64(l2m), float64(l2a))
	m["gpu.calls_per_predict"] = ratio(float64(gpuCalls), float64(nPreds))
	m["core.adaptive_rounds"] = ratio(float64(rounds), float64(nGroups))
	m["core.step_coverage"] = ratio(float64(covered), float64(opWall[1]))
	m["core.overhead_ms"] = ratio(ms(opWall[1]-covered), float64(opCount[1]))
	m["combine.ci_rel_halfwidth"] = ratio(ci, float64(nPreds))
	m["runner.parallel_efficiency"] = ratio(float64(groupWall), float64(slots))
	m["runner.queue_ms"] = ratio(ms(queue), float64(nGroups))
	m["obs.trace_overhead_pct"] = overheadPct(opWall, opCount)
	return m
}

// overheadPct compares the mean wall time of traced operations with that
// of the untraced ones (see tracer.on for how the two halves pair up).
func overheadPct(wall [2]time.Duration, count [2]int) float64 {
	plain := ratio(float64(wall[0]), float64(count[0]))
	traced := ratio(float64(wall[1]), float64(count[1]))
	return 100 * ratio(traced-plain, plain)
}
