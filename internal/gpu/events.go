// The simulator is cycle-driven but event-assisted: components schedule
// wakeups on a global min-heap so the main loop can skip cycles where
// nothing can happen. Tens of millions of events flow through it per
// simulated frame, and popping them was the largest single cost in every
// CPU profile of a run.
//
// An event is a cycle and one packed payload word. The heap keeps the two
// in parallel arrays (minHeap, heap.go), so its sift loops compare cycles
// packed eight to a cache line and move a payload word only with its
// cycle. Heap order depends only on the cycle, and minHeap's bottom-up pop
// and hole-based push leave the array exactly as the textbook swap-based
// heap does after every operation, so the pop sequence, ties included, is
// the one every earlier version of the simulator produced.

package gpu

type evKind uint8

const (
	// evWarpWake moves a blocked warp back to its SM's ready set.
	evWarpWake evKind = iota
	// evRayWork makes an RT-unit ray ready to issue its next step.
	evRayWork
	// evFetchDone releases one RT-unit MSHR slot and unstalls a waiting
	// ray if any.
	evFetchDone
)

// Payload word layout: kind(2) | sm(10) | id(20) | uid(32), most
// significant first. newSim rejects configurations that exceed the field
// widths (1024 SMs, 2^20 warp slots / resident rays) and Run rejects jobs
// with 2^32 or more warps, so packing never truncates.
const (
	evKindShift = 62
	evSMShift   = 52
	evIDShift   = 32

	evSMLimit  = 1 << 10
	evIDLimit  = 1 << 20
	evUIDLimit = 1 << 32
)

type event struct {
	cycle uint64
	word  uint64
}

// mkEvent packs an event. id is a warp slot (evWarpWake) or ray pool index
// (evRayWork); uid is the warp generation tag validating wakes against slot
// reuse (unused by ray events).
func mkEvent(cycle uint64, kind evKind, sm int, id int32, uid int64) event {
	return event{
		cycle: cycle,
		word: uint64(kind)<<evKindShift |
			uint64(sm)<<evSMShift |
			(uint64(uint32(id))&(evIDLimit-1))<<evIDShift |
			uint64(uid)&(evUIDLimit-1),
	}
}

func (e event) kind() evKind { return evKind(e.word >> evKindShift) }
func (e event) sm() int32    { return int32(e.word >> evSMShift & (evSMLimit - 1)) }
func (e event) id() int32    { return int32(e.word >> evIDShift & (evIDLimit - 1)) }
func (e event) uid() uint32  { return uint32(e.word) }

// eventHeap orders events by cycle; see minHeap for the tie order.
type eventHeap struct {
	minHeap[uint64, uint64]
}

func (h *eventHeap) push(e event) { h.minHeap.push(e.cycle, e.word) }

func (h *eventHeap) pop() event {
	c, w := h.minHeap.pop()
	return event{cycle: c, word: w}
}

func (h *eventHeap) minCycle() uint64 { return h.keys[0] }
