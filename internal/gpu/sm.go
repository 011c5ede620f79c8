package gpu

import (
	"zatel/internal/cache"
	"zatel/internal/config"
	"zatel/internal/rt"
)

// warpPhase tracks where a resident warp is in its lifecycle.
type warpPhase uint8

const (
	wReady warpPhase = iota
	wBlocked
	wRTQueued // waiting for a free RT-unit warp slot
	wRTWait   // rays in flight inside the RT unit
	wDone
	wEmpty // slot unoccupied
)

// warp is a resident warp context: up to WarpSize threads replayed in
// SIMT lockstep with kind-grouped divergence serialization.
type warp struct {
	uid   int64 // generation tag, unique across the run
	age   int64 // launch order, GTO tie-break
	phase warpPhase
	// live counts threads that have not yet exhausted their trace. It is
	// maintained at every op-cursor advance so warp completion is an O(1)
	// check instead of a WarpSize-wide rescan on every wake and ray retire.
	live int32
	// threads holds each lane's replay cursor over its recorded trace.
	threads     []rt.Cursor
	pendingRays int32 // outstanding RT-unit rays for the blocking trace op
	// raySteps stages the step words of an issued trace op's rays until
	// the RT unit admits the warp.
	raySteps [][]uint16
}

// sm is one streaming multiprocessor: warp slots, a GTO/RR scheduler, an
// L1D cache with analytic MSHRs, and one RT accelerator unit.
type sm struct {
	id    int
	warps []warp // fixed-size slot array (MaxWarpsPerSM)

	// active mirrors membership in Sim.activeSMs: the SM has at least one
	// issuable warp or a ready RT-unit ray this cycle.
	active bool

	// ready holds the slots of issuable warps ordered by age (oldest
	// first); lastIssued implements GTO's greedy preference.
	ready      ageHeap
	lastIssued int32

	l1       *cache.Cache
	l1Flight evictedFills
	l1MSHRs  int
	// l1Done/l1Out track MSHR occupancy: l1Out fills are outstanding and
	// l1Done holds their completion cycles.
	l1Done doneQ
	l1Out  int
	// lsuNextFree serializes L1 accesses (one line per cycle).
	lsuNextFree uint64

	rt rtUnit

	// instructions counts thread-level instructions issued by this SM.
	instructions uint64

	// Scratch buffers reused across issues to avoid allocation.
	scratchLanes []int32
	scratchLines []uint64
	dedup        lineSet
}

// reset returns the SM to its just-constructed state while keeping every
// allocation (caches, heaps, flight map, warp slot array, scratch) for the
// next pooled run. Trace references held by warp slots are cleared by
// Sim.scrub, not here, so a pooled simulator never pins a retired workload.
func (s *sm) reset() {
	for i := range s.warps {
		w := &s.warps[i]
		w.phase = wEmpty
		w.live = 0
		w.pendingRays = 0
	}
	s.active = false
	s.ready.clear()
	s.lastIssued = -1
	s.l1.Reset()
	s.l1Flight.reset()
	s.l1Done.clear()
	s.l1Out = 0
	s.lsuNextFree = 0
	s.rt.reset()
	s.instructions = 0
}

// ageHeap is a min-heap of warp slots keyed by warp age. Ages are unique
// across a run (launch order), so pop order is fully determined by the
// contents and the internal layout is free to differ from older versions.
type ageHeap struct {
	minHeap[int64, int32] // age -> slot
}

func (h *ageHeap) push(slot int32, age int64) { h.minHeap.push(age, slot) }

func (h *ageHeap) pop() int32 {
	_, slot := h.minHeap.pop()
	return slot
}

// remove deletes slot from the heap, reporting whether it was present. The
// scan covers at most one SM's warp slots; the repair is one O(log n) sift.
func (h *ageHeap) remove(slot int32) bool {
	for i, s := range h.vals {
		if s == slot {
			h.removeAt(i)
			return true
		}
	}
	return false
}

// pickWarp selects the next warp to issue according to the scheduling
// policy. GTO prefers the last-issued warp when it is still ready and
// otherwise takes the oldest ready warp; RoundRobin rotates through slots
// starting after the last issued one. It returns -1 when nothing is ready.
func (s *sm) pickWarp(policy config.SchedulerKind) int32 {
	if s.ready.len() == 0 {
		return -1
	}
	switch policy {
	case config.RoundRobin:
		n := len(s.warps)
		for i := 1; i <= n; i++ {
			slot := int32((int(s.lastIssued) + i + n) % n)
			if s.warps[slot].phase == wReady && s.ready.remove(slot) {
				return slot
			}
		}
		return -1
	default: // GTO
		if s.lastIssued >= 0 && s.warps[s.lastIssued].phase == wReady {
			if s.ready.remove(s.lastIssued) {
				return s.lastIssued
			}
		}
		return s.ready.pop()
	}
}

// markReady transitions a warp slot into the ready set. Callers outside the
// issue phase must also activate the SM (Sim.activate).
func (s *sm) markReady(slot int32) {
	s.warps[slot].phase = wReady
	s.ready.push(slot, s.warps[slot].age)
}

// lineSet deduplicates the cache lines touched by one warp-wide memory op.
// It replaces a linear scan of the lines-so-far slice (O(WarpSize²)
// comparisons per divergent access pattern) with a generation-stamped
// open-addressed probe. Stamping makes per-issue clearing free: begin()
// bumps the generation and every slot from earlier issues reads as empty.
type lineSet struct {
	keys []uint64
	gen  []uint32
	cur  uint32
	mask uint64
}

// init sizes the table for at most maxAdds insertions per generation; the
// 4× slack keeps the probe sequences short.
func (ls *lineSet) init(maxAdds int) {
	n := 4
	for n < 4*maxAdds {
		n *= 2
	}
	ls.keys = make([]uint64, n)
	ls.gen = make([]uint32, n)
	ls.cur = 0
	ls.mask = uint64(n - 1)
}

// begin starts a new deduplication scope.
func (ls *lineSet) begin() {
	ls.cur++
	if ls.cur == 0 { // generation counter wrapped: stamp everything stale
		clear(ls.gen)
		ls.cur = 1
	}
}

// add inserts line into the current scope, reporting whether it was absent.
func (ls *lineSet) add(line uint64) bool {
	i := (line * 0x9E3779B97F4A7C15) >> 32 & ls.mask
	for {
		if ls.gen[i] != ls.cur {
			ls.keys[i] = line
			ls.gen[i] = ls.cur
			return true
		}
		if ls.keys[i] == line {
			return false
		}
		i = (i + 1) & ls.mask
	}
}
