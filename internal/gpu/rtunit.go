package gpu

import "zatel/internal/bvh"

// rayState is one ray resident in an RT unit, replaying its recorded
// traversal steps: fetch the node (and, at leaves, the triangle block),
// run the intersection pipeline, advance. The steps are decoded in place
// from the ray's step words (bvh.DecodeWord), each against the node of the
// step before it; the next step's first word is held here, so that issue
// reads the words only for an escape.
type rayState struct {
	words    []uint16
	warpSlot int32
	idx      int32  // offset of the next step's first word
	node     int32  // node of the last issued step (0 before the first)
	word     uint16 // words[idx], while idx < len(words)
}

// rtUnit is the per-SM ray tracing accelerator: a small number of resident
// warp slots (Table II: 4), an MSHR file bounding outstanding memory
// fetches (Table II: 64), and an intersection pipeline advancing a bounded
// number of rays per cycle.
type rtUnit struct {
	maxWarps     int
	mshrSize     int
	raysPerCycle int
	boxCycles    uint64
	triCycles    uint64

	residentWarps int
	activeRays    int
	outstanding   int // in-flight memory fetches

	rays     []rayState
	freeRays []int32
	ready    fifo // rays ready to issue their next step
	stalled  fifo // rays blocked on a full MSHR file
	queue    fifo // warp slots awaiting a resident-warp slot

	raysTraced uint64
}

// reset empties the unit for a pooled rerun, keeping slice capacity. The
// word slices still referenced by the rays array are cleared by Sim.scrub.
func (u *rtUnit) reset() {
	u.residentWarps = 0
	u.activeRays = 0
	u.outstanding = 0
	u.rays = u.rays[:0]
	u.freeRays = u.freeRays[:0]
	u.ready.reset()
	u.stalled.reset()
	u.queue.reset()
	u.raysTraced = 0
}

// allocRay takes a ray from the pool.
func (u *rtUnit) allocRay(warpSlot int32, words []uint16) int32 {
	var rid int32
	if n := len(u.freeRays); n > 0 {
		rid = u.freeRays[n-1]
		u.freeRays = u.freeRays[:n-1]
		u.rays[rid] = rayState{words: words, warpSlot: warpSlot, word: words[0]}
	} else {
		rid = int32(len(u.rays))
		u.rays = append(u.rays, rayState{words: words, warpSlot: warpSlot, word: words[0]})
	}
	return rid
}

// tryAdmit gives warp slot a resident RT-unit slot if one is free,
// creating its rays; otherwise the warp queues. Returns true if admitted.
func (sim *Sim) tryAdmit(s *sm, slot int32, now uint64) bool {
	u := &s.rt
	w := &s.warps[slot]
	if u.residentWarps >= u.maxWarps {
		w.phase = wRTQueued
		u.queue.push(slot)
		return false
	}
	u.residentWarps++
	sim.residentWarpsTotal++
	w.phase = wRTWait
	created := int32(0)
	for _, words := range w.raySteps {
		if len(words) == 0 {
			// Root-miss ray: the root AABB test rejects it immediately.
			continue
		}
		rid := u.allocRay(slot, words)
		u.ready.push(rid)
		created++
	}
	w.raySteps = w.raySteps[:0]
	w.pendingRays = created
	u.activeRays += int(created)
	sim.activeRaysTotal += int(created)
	if created == 0 {
		// Every lane's ray missed the root: the warp resumes after one
		// box-test latency and the RT slot frees right away.
		sim.releaseRTSlot(s, now)
		w.phase = wBlocked
		sim.events.push(mkEvent(now+u.boxCycles, evWarpWake, s.id, slot, w.uid))
		return true
	}
	sim.activate(s)
	return true
}

// releaseRTSlot frees one resident-warp slot and admits the next queued
// warp, if any.
func (sim *Sim) releaseRTSlot(s *sm, now uint64) {
	u := &s.rt
	u.residentWarps--
	sim.residentWarpsTotal--
	if u.queue.len() > 0 {
		sim.tryAdmit(s, u.queue.pop(), now)
	}
}

// rtTick advances up to raysPerCycle ready rays by one traversal step. The
// issue walk calls it only when a ray is ready.
func (sim *Sim) rtTick(s *sm, now uint64) {
	u := &s.rt
	budget := u.raysPerCycle
	for budget > 0 && u.ready.len() > 0 {
		rid := u.ready.pop()
		r := &u.rays[rid]

		node, triTests, next := bvh.DecodeWord(r.words, int(r.idx), r.word, r.node)
		fetches := 1
		if triTests > 0 {
			fetches = 2
		}
		if u.outstanding+fetches > u.mshrSize {
			u.stalled.push(rid)
			continue
		}

		done := sim.loadLine(s, bvh.NodeAddr(node), now)
		if triTests > 0 {
			if d := sim.loadLine(s, bvh.TriAddr(node), now); d > done {
				done = d
			}
		}
		u.outstanding += fetches
		for f := 0; f < fetches; f++ {
			sim.events.push(mkEvent(done, evFetchDone, s.id, 0, 0))
		}

		testLat := u.boxCycles
		if triTests > 0 {
			testLat = u.triCycles * uint64(triTests)
		}
		r.idx, r.node = int32(next), node
		if next < len(r.words) {
			r.word = r.words[next]
		}
		sim.events.push(mkEvent(done+testLat, evRayWork, s.id, rid, 0))
		budget--
	}
}

// rayWork handles an evRayWork event: the ray's current step finished; it
// either becomes ready for its next step or retires.
func (sim *Sim) rayWork(s *sm, rid int32, now uint64) {
	u := &s.rt
	r := &u.rays[rid]
	if int(r.idx) < len(r.words) {
		u.ready.push(rid)
		sim.activate(s)
		return
	}
	// Ray complete.
	u.raysTraced++
	u.activeRays--
	sim.activeRaysTotal--
	warpSlot := r.warpSlot
	u.freeRays = append(u.freeRays, rid)

	w := &s.warps[warpSlot]
	w.pendingRays--
	if w.pendingRays > 0 {
		return
	}
	// Last ray of the warp's trace call: free the slot and resume the warp.
	sim.releaseRTSlot(s, now)
	if w.live == 0 {
		sim.retireWarp(s, warpSlot, now)
	} else {
		s.markReady(warpSlot)
		sim.activate(s)
	}
}

// fetchDone handles an evFetchDone event: one MSHR slot freed; unstall the
// oldest stalled ray.
func (sim *Sim) fetchDone(s *sm) {
	u := &s.rt
	u.outstanding--
	if u.stalled.len() > 0 {
		u.ready.push(u.stalled.pop())
		sim.activate(s)
	}
}
