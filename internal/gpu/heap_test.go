package gpu

import (
	"math/rand"
	"sort"
	"testing"
)

// refEventHeap is the swap-based binary heap the simulator used before
// minHeap, kept verbatim as the oracle: equal-cycle events pop in the order
// it gives them, and simulated timing depends on that order.
type refEventHeap struct {
	items []event
}

func (h *refEventHeap) push(e event) {
	h.items = append(h.items, e)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].cycle <= h.items[i].cycle {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *refEventHeap) pop() event {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.items[l].cycle < h.items[smallest].cycle {
			smallest = l
		}
		if r < last && h.items[r].cycle < h.items[smallest].cycle {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
	return top
}

func (h *refEventHeap) len() int { return len(h.items) }

// heapOracle drives eventHeap and refEventHeap through the same operations
// and fails on the first pop or array that differs.
type heapOracle struct {
	t   testing.TB
	got eventHeap
	ref refEventHeap
	now uint64
	ops int
}

// push schedules an event offset cycles after the last popped cycle. The
// callers keep offsets below a small window, which makes most pops tie with
// a sibling, as the simulator's do. The payload word is the operation
// number, so any change in tie order shows in the popped words.
func (o *heapOracle) push(offset uint64) {
	e := event{cycle: o.now + offset, word: uint64(o.ops)}
	o.got.push(e)
	o.ref.push(e)
	o.step("push")
}

func (o *heapOracle) pop() {
	if o.ref.len() == 0 {
		return
	}
	if g, r := o.got.minCycle(), o.ref.items[0].cycle; g != r {
		o.t.Fatalf("op %d: minCycle %d, reference %d", o.ops, g, r)
	}
	g, r := o.got.pop(), o.ref.pop()
	if g != r {
		o.t.Fatalf("op %d: popped (%d, %#x), reference (%d, %#x)", o.ops, g.cycle, g.word, r.cycle, r.word)
	}
	o.now = g.cycle
	o.step("pop")
}

func (o *heapOracle) step(op string) {
	o.ops++
	if o.got.len() != len(o.ref.items) {
		o.t.Fatalf("op %d (%s): len %d, reference %d", o.ops, op, o.got.len(), len(o.ref.items))
	}
	for i, r := range o.ref.items {
		if o.got.keys[i] != r.cycle || o.got.vals[i] != r.word {
			o.t.Fatalf("op %d (%s): slot %d holds (%d, %#x), reference (%d, %#x)",
				o.ops, op, i, o.got.keys[i], o.got.vals[i], r.cycle, r.word)
		}
	}
}

// TestEventHeapMatchesReference replays random interleavings of pushes and
// pops, each round with its own cycle window (1 to 12) and push share, and
// requires the same pops and the same array as the reference after every
// operation. Three more rounds keep at least 1 000 events live in a 1- to
// 3-cycle window, as a full RTX 2060 does (about 2 200): then nearly every
// pop ties, and its descent takes the two-level step down to the last full
// level and the one-level fallback below it.
func TestEventHeapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 60; round++ {
		o := heapOracle{t: t}
		window := 1 + round%12
		pushShare := 40 + rng.Intn(25) // percent; above 50 the heap grows
		for i := 0; i < 4000; i++ {
			if rng.Intn(100) < pushShare {
				o.push(uint64(rng.Intn(window)))
			} else {
				o.pop()
			}
		}
		for o.ref.len() > 0 {
			o.pop()
		}
	}
	for window := 1; window <= 3; window++ {
		o := heapOracle{t: t}
		for o.ref.len() < 1200 {
			o.push(uint64(rng.Intn(window)))
		}
		for i := 0; i < 4000; i++ {
			if o.ref.len() <= 1000 || rng.Intn(2) == 0 {
				o.push(uint64(rng.Intn(window)))
			} else {
				o.pop()
			}
		}
		for o.ref.len() > 0 {
			o.pop()
		}
	}
}

// FuzzEventHeapOrder is the oracle test over fuzzer-chosen schedules. The
// first byte picks the cycle window (1 to 12); each later byte below 0x60
// pops and any other pushes at the byte's value modulo the window.
func FuzzEventHeapOrder(f *testing.F) {
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0x00, 0xff, 0x00, 0x00})
	f.Add([]byte{3, 0x80, 0x91, 0xa2, 0xb3, 0xc4, 0x10, 0xd5, 0x20, 0xe6, 0x30, 0x40, 0x50})
	f.Add([]byte{11, 0xfe, 0xfd, 0xfc, 0xfb, 0xfa, 0xf9, 0xf8, 0xf7, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06})
	// 40 pushes over a 3-cycle window fill five levels; then pops and pushes
	// alternate, so pops descend by two levels and finish at the ragged one.
	deep := []byte{2}
	for i := byte(0); i < 40; i++ {
		deep = append(deep, 0x60+i)
	}
	for i := byte(0); i < 20; i++ {
		deep = append(deep, i, 0x60+3*i)
	}
	f.Add(deep)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		window := 1 + uint64(data[0])%12
		o := heapOracle{t: t}
		for _, b := range data[1:] {
			if b < 0x60 {
				o.pop()
			} else {
				o.push(uint64(b) % window)
			}
		}
		for o.ref.len() > 0 {
			o.pop()
		}
	})
}

// TestMinHeapRemoveAt removes entries from random positions of a heap with
// unique keys, as ageHeap does, and checks heap order after every removal
// and the pop order of what is left.
func TestMinHeapRemoveAt(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 200; round++ {
		var h minHeap[int64, int32]
		keys := rng.Perm(1 + rng.Intn(64))
		for i, k := range keys {
			h.push(int64(k), int32(i))
		}
		left := map[int64]bool{}
		for _, k := range keys {
			left[int64(k)] = true
		}
		for h.len() > 0 && rng.Intn(3) > 0 {
			i := rng.Intn(h.len())
			delete(left, h.keys[i])
			h.removeAt(i)
			for c := 1; c < h.len(); c++ {
				if h.keys[(c-1)/2] > h.keys[c] {
					t.Fatalf("round %d: heap order broken at %d after removeAt(%d)", round, c, i)
				}
			}
		}
		want := make([]int64, 0, len(left))
		for k := range left {
			want = append(want, k)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for _, w := range want {
			k, v := h.pop()
			if k != w || keys[v] != int(k) {
				t.Fatalf("round %d: popped (%d, %d), want key %d", round, k, v, w)
			}
		}
	}
}
