// Package gpu is the cycle-level GPU timing model — the stand-in for the
// Vulkan-Sim simulator the paper builds Zatel on. It replays the per-pixel
// traces recorded by internal/rt on a configurable GPU (internal/config):
// SIMT warps scheduled greedy-then-oldest across SMs, per-SM RT accelerator
// units with MSHRs, fully-associative L1D caches, address-interleaved L2
// slices behind a crossbar, and per-partition DRAM channels.
//
// The model is trace-driven and analytic on the memory side: loads receive
// completion cycles from queue/bandwidth equations rather than per-cycle
// ticking, which keeps full-frame simulations fast while preserving the
// contention behaviour Zatel's accuracy depends on (cache capacity, DRAM
// saturation, RT-unit occupancy).
//
// Simulator state is pooled per configuration: Zatel sweeps run thousands
// of group simulations against a handful of configs, and rebuilding the
// caches, heaps and warp arrays for each one dominated the allocation
// profile. Run draws a simulator from the pool, replays the job, and
// returns it scrubbed of trace references; a warm Run allocates almost
// nothing. Pooling is invisible to simulated timing — reset restores
// exactly the state newSim constructs, and the cycle-exactness golden test
// pins cold and warm runs to identical reports.
package gpu

import (
	"fmt"
	"sync"
	"time"

	"zatel/internal/cache"
	"zatel/internal/config"
	"zatel/internal/dram"
	"zatel/internal/metrics"
	"zatel/internal/noc"
	"zatel/internal/rt"
)

// Job describes one simulation run: a GPU configuration and the thread
// traces to execute, in warp order (consecutive groups of WarpSize threads
// form warps). Pixels excluded by Zatel's filter mask must already be
// replaced with rt.FilteredTrace() by the caller.
//
// Traces may be supplied either as a slice or, to avoid materialising a
// per-run copy, through Source. When Source is non-nil it wins.
type Job struct {
	Cfg    config.Config
	Traces []rt.ThreadTrace
	// Source supplies the threads without requiring a contiguous slice;
	// see rt.TraceSource. The simulator only reads through it.
	Source rt.TraceSource
}

// Sim is the run state. Construct with newSim; drive with run.
type Sim struct {
	cfg    config.Config
	events eventHeap
	sms    []*sm
	mem    *memSystem

	// activeSMs lists, in ascending id order, the SMs with issuable warps
	// or ready RT-unit rays. The issue phase walks only this list; the
	// ascending order matters because same-cycle accesses to the shared
	// memory system are served in SM iteration order.
	activeSMs []int32

	src         rt.TraceSource // not-yet-launched threads
	srcAt       int
	totalWarps  int
	retired     int
	nextWarpUID int64
	nextWarpAge int64

	now      uint64
	endCycle uint64

	// Integrated RT statistics (value × cycles).
	activeRaysTotal    int
	residentWarpsTotal int
	rtActiveRayCycles  uint64
	rtWarpSlotCycles   uint64

	l1Latency uint64
}

// simPools holds one free-list of idle simulators per configuration.
// config.Config is comparable (scalars and strings only), so it keys the
// map directly; two jobs share a pool exactly when their simulators are
// structurally interchangeable.
var simPools sync.Map // config.Config -> *sync.Pool

// DrainPools discards all pooled simulator state. It exists for benchmarks
// and tests that need to measure or exercise cold-start behaviour;
// production callers never need it.
func DrainPools() {
	simPools.Range(func(k, _ any) bool {
		simPools.Delete(k)
		return true
	})
}

func getSim(cfg config.Config, src rt.TraceSource) (*Sim, error) {
	if pv, ok := simPools.Load(cfg); ok {
		if v := pv.(*sync.Pool).Get(); v != nil {
			sim := v.(*Sim)
			sim.reset()
			sim.start(src)
			return sim, nil
		}
	}
	return newSim(cfg, src)
}

// putSim returns a finished simulator to its configuration's pool. The
// caller must not touch sim afterwards.
func putSim(sim *Sim) {
	sim.scrub()
	pv, _ := simPools.LoadOrStore(sim.cfg, &sync.Pool{})
	pv.(*sync.Pool).Put(sim)
}

// Run simulates the job to completion and returns the metric report.
func Run(job Job) (metrics.Report, error) {
	if err := job.Cfg.Validate(); err != nil {
		return metrics.Report{}, err
	}
	src := job.Source
	if src == nil {
		src = rt.TraceSlice(job.Traces)
	}
	if src.Len() == 0 {
		return metrics.Report{}, fmt.Errorf("gpu: no threads to run")
	}
	if err := checkEventLimits(job.Cfg, src.Len()); err != nil {
		return metrics.Report{}, err
	}
	start := time.Now()
	sim, err := getSim(job.Cfg, src)
	if err != nil {
		return metrics.Report{}, err
	}
	if err := sim.run(); err != nil {
		// A failed run leaves partially-consumed state; drop the simulator
		// rather than pooling it.
		return metrics.Report{}, err
	}
	rep := sim.report()
	putSim(sim)
	rep.WallTime = time.Since(start)
	return rep, nil
}

// checkEventLimits rejects jobs whose identifiers would not fit the packed
// event word (see events.go). Real configurations sit orders of magnitude
// below every limit.
func checkEventLimits(cfg config.Config, threads int) error {
	if cfg.NumSMs > evSMLimit {
		return fmt.Errorf("gpu: NumSMs %d exceeds event limit %d", cfg.NumSMs, evSMLimit)
	}
	if cfg.MaxWarpsPerSM > evIDLimit {
		return fmt.Errorf("gpu: MaxWarpsPerSM %d exceeds event limit %d", cfg.MaxWarpsPerSM, evIDLimit)
	}
	if cfg.RTMaxWarps*cfg.WarpSize > evIDLimit {
		return fmt.Errorf("gpu: RT ray pool %d exceeds event limit %d",
			cfg.RTMaxWarps*cfg.WarpSize, evIDLimit)
	}
	warps := (threads + cfg.WarpSize - 1) / cfg.WarpSize
	if uint64(warps) >= evUIDLimit {
		return fmt.Errorf("gpu: %d warps exceeds event uid limit %d", warps, uint64(evUIDLimit))
	}
	return nil
}

func newSim(cfg config.Config, src rt.TraceSource) (*Sim, error) {
	sim := &Sim{
		cfg:       cfg,
		l1Latency: uint64(cfg.L1DLatency),
	}

	xbar, err := noc.New(cfg.NumSMs, cfg.NumMemPartitions, cfg.NoCLatency)
	if err != nil {
		return nil, err
	}
	sim.mem = &memSystem{
		xbar:      xbar,
		lineBytes: uint64(cfg.LineBytes),
		l2Latency: uint64(cfg.L2Latency),
		l2MSHRs:   cfg.L2MSHRs,
		l2TagLat:  uint64(cfg.L2Latency) / 4,
	}
	for p := 0; p < cfg.NumMemPartitions; p++ {
		l2, err := cache.New(cfg.L2Slice())
		if err != nil {
			return nil, err
		}
		ch, err := dram.NewChannel(dram.Config{
			BytesPerCycle: cfg.DRAMBytesPerCoreCycle(),
			RowBytes:      cfg.DRAMRowBytes,
			RowMissCycles: cfg.DRAMRowMissLat,
			BaseLatency:   30,
			QueueDepth:    cfg.DRAMQueueDepth,
		})
		if err != nil {
			return nil, err
		}
		sim.mem.partitions = append(sim.mem.partitions, &partition{
			l2:       l2,
			l2Flight: newEvictedFills(cfg.L2MSHRs),
			channel:  ch,
		})
	}

	sim.activeSMs = make([]int32, 0, cfg.NumSMs)
	for i := 0; i < cfg.NumSMs; i++ {
		l1, err := cache.New(cfg.L1D())
		if err != nil {
			return nil, err
		}
		core := &sm{
			id:         i,
			warps:      make([]warp, cfg.MaxWarpsPerSM),
			l1:         l1,
			l1Flight:   newEvictedFills(cfg.L1DMSHRs),
			l1MSHRs:    cfg.L1DMSHRs,
			lastIssued: -1,
			rt: rtUnit{
				maxWarps:     cfg.RTMaxWarps,
				mshrSize:     cfg.RTMSHRSize,
				raysPerCycle: cfg.RTRaysPerCycle,
				boxCycles:    uint64(cfg.RTBoxCycles),
				triCycles:    uint64(cfg.RTTriCycles),
			},
			scratchLanes: make([]int32, 0, cfg.WarpSize),
			scratchLines: make([]uint64, 0, cfg.WarpSize),
		}
		for slot := range core.warps {
			core.warps[slot].phase = wEmpty
		}
		core.dedup.init(cfg.WarpSize)
		sim.sms = append(sim.sms, core)
	}

	sim.start(src)
	return sim, nil
}

// reset restores a pooled simulator to the state newSim leaves it in before
// start, reusing every allocation.
func (sim *Sim) reset() {
	sim.events.clear()
	for _, s := range sim.sms {
		s.reset()
	}
	sim.mem.reset()
	sim.activeSMs = sim.activeSMs[:0]
	sim.src = nil
	sim.srcAt = 0
	sim.totalWarps = 0
	sim.retired = 0
	sim.nextWarpUID = 0
	sim.nextWarpAge = 0
	sim.now = 0
	sim.endCycle = 0
	sim.activeRaysTotal = 0
	sim.residentWarpsTotal = 0
	sim.rtActiveRayCycles = 0
	sim.rtWarpSlotCycles = 0
}

// start binds the trace source and performs the initial breadth-first
// launch: warp slots fill across SMs so work spreads evenly, as a GPU's
// thread-block scheduler does.
func (sim *Sim) start(src rt.TraceSource) {
	sim.src = src
	sim.totalWarps = (src.Len() + sim.cfg.WarpSize - 1) / sim.cfg.WarpSize
	for slot := 0; slot < sim.cfg.MaxWarpsPerSM && sim.srcAt < src.Len(); slot++ {
		for _, core := range sim.sms {
			if sim.srcAt >= src.Len() {
				break
			}
			sim.launchWarp(core, int32(slot))
		}
	}
}

// scrub drops every reference into the job's traces (the cursors' arena
// pointers and the staged and resident rays' word views) so a pooled
// simulator does not pin a retired workload in memory. Capacity is kept
// everywhere.
func (sim *Sim) scrub() {
	sim.src = nil
	for _, s := range sim.sms {
		for i := range s.warps {
			w := &s.warps[i]
			clear(w.threads[:cap(w.threads)])
			clear(w.raySteps[:cap(w.raySteps)])
		}
		rays := s.rt.rays[:cap(s.rt.rays)]
		for j := range rays {
			rays[j].words = nil
		}
	}
}

// activate inserts the SM into the active list, keeping ascending id
// order. Idempotent; called whenever an SM gains issue-phase work outside
// the issue loop (event delivery and RT-slot handoff).
func (sim *Sim) activate(s *sm) {
	if s.active {
		return
	}
	s.active = true
	sim.activeSMs = append(sim.activeSMs, 0)
	i := len(sim.activeSMs) - 1
	for i > 0 && sim.activeSMs[i-1] > int32(s.id) {
		sim.activeSMs[i] = sim.activeSMs[i-1]
		i--
	}
	sim.activeSMs[i] = int32(s.id)
}

// launchWarp builds the next pending warp into the given slot, reusing the
// slot's thread array from any previous occupant.
func (sim *Sim) launchWarp(s *sm, slot int32) {
	n := sim.cfg.WarpSize
	if remain := sim.src.Len() - sim.srcAt; remain < n {
		n = remain
	}
	w := &s.warps[slot]
	threads := w.threads
	if cap(threads) < n {
		threads = make([]rt.Cursor, n, sim.cfg.WarpSize)
	} else {
		threads = threads[:n]
	}
	*w = warp{
		uid:      sim.nextWarpUID,
		age:      sim.nextWarpAge,
		threads:  threads,
		raySteps: w.raySteps[:0],
	}
	sim.nextWarpUID++
	sim.nextWarpAge++
	live := int32(0)
	for i := 0; i < n; i++ {
		threads[i] = sim.src.At(sim.srcAt + i).Cursor()
		if !threads[i].Done() {
			live++
		}
	}
	w.live = live
	sim.srcAt += n
	s.markReady(slot)
	sim.activate(s)
}

// retireWarp finishes a warp, reuses its slot for pending work and records
// the completion cycle.
func (sim *Sim) retireWarp(s *sm, slot int32, now uint64) {
	s.warps[slot].phase = wEmpty
	sim.retired++
	sim.endCycle = now
	if sim.srcAt < sim.src.Len() {
		sim.launchWarp(s, slot)
	}
}

// run executes the main loop until every warp retires.
func (sim *Sim) run() error {
	issuePerCycle, scheduler := sim.cfg.IssuePerCycle, sim.cfg.Scheduler
	for sim.retired < sim.totalWarps {
		now := sim.now

		// Deliver due events.
		for sim.events.len() > 0 && sim.events.minCycle() <= now {
			e := sim.events.pop()
			s := sim.sms[e.sm()]
			switch e.kind() {
			case evWarpWake:
				slot := e.id()
				w := &s.warps[slot]
				if uint32(w.uid) != e.uid() || w.phase != wBlocked {
					break // stale wake for a reused slot
				}
				if w.live == 0 && w.pendingRays == 0 {
					sim.retireWarp(s, slot, now)
				} else {
					s.markReady(slot)
					sim.activate(s)
				}
			case evRayWork:
				sim.rayWork(s, e.id(), now)
			case evFetchDone:
				sim.fetchDone(s)
			}
		}

		// Issue and tick RT units on the active SMs only, dropping each SM
		// the phase drains as the walk passes it (in place, preserving
		// order). During this phase an SM can only add work to itself
		// (retire→relaunch, RT admit), so the active list cannot gain
		// members mid-walk, no SM's ready sets change after the walk has
		// passed it, and the ascending walk order matches the full scan it
		// replaces.
		live := sim.activeSMs[:0]
		for _, si := range sim.activeSMs {
			s := sim.sms[si]
			for k := 0; k < issuePerCycle; k++ {
				slot := s.pickWarp(scheduler)
				if slot < 0 {
					break
				}
				s.lastIssued = slot
				sim.issueWarp(s, slot, now)
			}
			if s.rt.ready.len() > 0 {
				sim.rtTick(s, now)
			}
			if s.ready.len() > 0 || s.rt.ready.len() > 0 {
				live = append(live, si)
			} else {
				s.active = false
			}
		}
		sim.activeSMs = live

		// Advance time, skipping dead cycles when nothing is issuable.
		next := now + 1
		if len(sim.activeSMs) == 0 {
			if sim.events.len() == 0 {
				if sim.retired < sim.totalWarps {
					return fmt.Errorf("gpu: deadlock at cycle %d: %d/%d warps retired",
						now, sim.retired, sim.totalWarps)
				}
				break
			}
			if mc := sim.events.minCycle(); mc > next {
				next = mc
			}
		}
		dt := next - now
		sim.rtActiveRayCycles += uint64(sim.activeRaysTotal) * dt
		sim.rtWarpSlotCycles += uint64(sim.residentWarpsTotal) * dt
		sim.now = next
	}
	return nil
}

// issueWarp replays one SIMT instruction for the warp in the given slot.
// Threads whose current op kind matches the leader's execute together;
// divergent threads wait for a later issue (kind-grouped serialization).
func (sim *Sim) issueWarp(s *sm, slot int32, now uint64) {
	w := &s.warps[slot]
	if w.live == 0 {
		// All threads finished; the warp retires immediately.
		sim.retireWarp(s, slot, now)
		return
	}
	lanes := s.scratchLanes[:0]
	var kind rt.OpKind
	for i := range w.threads {
		t := &w.threads[i]
		if t.Done() {
			continue
		}
		k := t.Kind()
		if len(lanes) == 0 {
			kind = k
		}
		if k == kind {
			lanes = append(lanes, int32(i))
		}
	}

	switch kind {
	case rt.OpCompute:
		var maxArg, sumArg uint64
		for _, li := range lanes {
			t := &w.threads[li]
			arg := uint64(t.Arg())
			if arg > maxArg {
				maxArg = arg
			}
			sumArg += arg
			t.Advance()
			if t.Done() {
				w.live--
			}
		}
		if maxArg == 0 {
			maxArg = 1
		}
		s.instructions += sumArg
		sim.block(s, slot, now+maxArg)

	case rt.OpLoad:
		lines := s.scratchLines[:0]
		s.dedup.begin()
		for _, li := range lanes {
			t := &w.threads[li]
			line := s.l1.LineAddr(uint64(t.Arg()))
			t.Advance()
			if t.Done() {
				w.live--
			}
			if s.dedup.add(line) {
				lines = append(lines, line)
			}
		}
		var done uint64
		for _, line := range lines {
			if d := sim.loadLine(s, line, now); d > done {
				done = d
			}
		}
		s.instructions += uint64(len(lanes))
		sim.block(s, slot, done)

	case rt.OpStore:
		lines := s.scratchLines[:0]
		s.dedup.begin()
		for _, li := range lanes {
			t := &w.threads[li]
			line := s.l1.LineAddr(uint64(t.Arg()))
			t.Advance()
			if t.Done() {
				w.live--
			}
			if s.dedup.add(line) {
				lines = append(lines, line)
			}
		}
		for _, line := range lines {
			sim.storeLine(s, line, now)
		}
		s.instructions += uint64(len(lanes))
		sim.block(s, slot, now+1)

	case rt.OpTrace:
		w.raySteps = w.raySteps[:0]
		for _, li := range lanes {
			t := &w.threads[li]
			w.raySteps = append(w.raySteps, t.RayWords(t.Arg()))
			t.Advance()
			if t.Done() {
				w.live--
			}
		}
		s.instructions += uint64(len(lanes))
		sim.tryAdmit(s, slot, now)
	}
}

// block parks the warp until cycle until.
func (sim *Sim) block(s *sm, slot int32, until uint64) {
	w := &s.warps[slot]
	w.phase = wBlocked
	sim.events.push(mkEvent(until, evWarpWake, s.id, slot, w.uid))
}

// loadLine issues a load of one cache line from SM s at cycle now and
// returns the data-arrival cycle, walking L1 (with MSHR merge) and, on a
// miss, the shared memory system.
func (sim *Sim) loadLine(s *sm, addr uint64, now uint64) uint64 {
	line := s.l1.LineAddr(addr)
	// The LSU performs one L1 access per cycle.
	at := max(now, s.lsuNextFree)
	s.lsuNextFree = at + 1

	// One tag probe; see evictedFills for why this is exact.
	fill, hit := s.l1.Load(line)
	if !hit {
		fill = s.l1Flight.get(line, at)
	}
	if fill > at {
		// Merged into an outstanding fill.
		return max(fill, at+sim.l1Latency)
	}
	if hit {
		return at + sim.l1Latency
	}

	// Primary miss: reserve the tag, allocate an MSHR and fetch from L2.
	s.l1Out -= s.l1Done.drain(at)
	start := at + 1
	if s.l1Out >= s.l1MSHRs {
		// The file is full; this request takes the slot of the earliest
		// completing fill.
		m := s.l1Done.pop()
		s.l1Out--
		start = max(start, m)
	}
	done := sim.mem.l2Load(s.id, line, start)
	if victim, ok := s.l1.Install(line, done); ok {
		s.l1Flight.add(victim, at)
	}
	s.l1Done.push(done)
	s.l1Out++
	return done
}

// storeLine issues a write-through store of one line.
func (sim *Sim) storeLine(s *sm, addr uint64, now uint64) {
	line := s.l1.LineAddr(addr)
	at := max(now, s.lsuNextFree)
	s.lsuNextFree = at + 1
	s.l1.Store(line)
	sim.mem.l2Store(line, at+1)
}

// report aggregates statistics into the Table I metric report.
func (sim *Sim) report() metrics.Report {
	rep := metrics.Report{
		Cycles: sim.endCycle,
		Warps:  sim.totalWarps,
	}
	var l1 cache.Stats
	for _, s := range sim.sms {
		l1.Add(s.l1.Stats())
		rep.Instructions += s.instructions
		rep.RTRaysTraced += s.rt.raysTraced
	}
	rep.L1DAccesses = l1.LoadAccesses
	rep.L1DMisses = l1.LoadMisses

	var l2 cache.Stats
	var bytesRead, busy, pending uint64
	for _, p := range sim.mem.partitions {
		l2.Add(p.l2.Stats())
		ds := p.channel.Stats(sim.endCycle)
		bytesRead += ds.BytesRead
		busy += ds.BusyCycles
		pending += ds.PendingCycles
		rep.DRAMReads += ds.Reads
	}
	rep.L2Accesses = l2.LoadAccesses
	rep.L2Misses = l2.LoadMisses
	rep.DRAMBytesRead = bytesRead
	rep.DRAMBusyCycles = busy
	rep.DRAMPendingCycles = pending

	peak := sim.cfg.DRAMBytesPerCoreCycle()
	if pending > 0 {
		rep.DRAMEff = float64(bytesRead) / (float64(pending) * peak)
	}
	if sim.endCycle > 0 {
		total := float64(sim.endCycle) * peak * float64(len(sim.mem.partitions))
		rep.DRAMBWUtil = float64(bytesRead) / total
	}

	rep.RTActiveRayCycles = sim.rtActiveRayCycles
	rep.RTWarpSlotCycles = sim.rtWarpSlotCycles
	return rep
}
