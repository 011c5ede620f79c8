package gpu

import "cmp"

// minHeap is the binary min-heap behind the simulator's three priority
// queues: the global event heap, the MSHR completion queues (doneQ) and the
// per-SM ready sets (ageHeap). Keys and payloads live in parallel slices so
// the sift loops compare a dense run of keys and touch a payload only to
// move it.
//
// Every operation leaves the array exactly as the textbook swap-based heap
// does: push sifts up while the parent is strictly greater, and pop sifts
// the last element down along the smaller child (the left one on ties)
// while that child is strictly smaller. The event heap depends on this:
// events with equal cycles pop in the order that heap gives them, and that
// order is observable in simulated timing. Both sifts move a hole instead
// of swapping, and pop runs bottom-up (Floyd): the hole walks to a leaf
// along the smaller child, then the displaced element climbs back while its
// parent is not smaller. A freshly pushed event usually belongs near the
// bottom, so the climb is short and the descent needs one comparison per
// level instead of two.
type minHeap[K cmp.Ordered, V any] struct {
	keys []K
	vals []V
}

func (h *minHeap[K, V]) len() int { return len(h.keys) }

// clear empties the heap, keeping its backing arrays.
func (h *minHeap[K, V]) clear() {
	h.keys = h.keys[:0]
	h.vals = h.vals[:0]
}

func (h *minHeap[K, V]) push(k K, v V) {
	h.keys = append(h.keys, k)
	h.vals = append(h.vals, v)
	h.up(uint(len(h.keys)-1), k, v)
}

// pop removes and returns the minimum entry. The heap must be non-empty.
func (h *minHeap[K, V]) pop() (K, V) {
	k0, v0 := h.keys[0], h.vals[0]
	last := len(h.keys) - 1
	k, v := h.keys[last], h.vals[last]
	h.keys, h.vals = h.keys[:last], h.vals[:last]
	if last > 0 {
		h.down(0, k, v)
	}
	return k0, v0
}

// removeAt deletes the entry at index i: the last entry fills the hole and
// sifts whichever way restores heap order.
func (h *minHeap[K, V]) removeAt(i int) {
	last := len(h.keys) - 1
	k, v := h.keys[last], h.vals[last]
	h.keys, h.vals = h.keys[:last], h.vals[:last]
	if i == last {
		return
	}
	if i > 0 && k < h.keys[(i-1)/2] {
		h.up(uint(i), k, v)
	} else {
		h.down(uint(i), k, v)
	}
}

// up drops (k, v) into the hole at i after moving every strictly greater
// ancestor down one level.
func (h *minHeap[K, V]) up(i uint, k K, v V) {
	keys := h.keys
	vals := h.vals[:len(keys)]
	for i > 0 {
		p := (i - 1) / 2
		pk := keys[p]
		if pk <= k {
			break
		}
		keys[i], vals[i] = pk, vals[p]
		i = p
	}
	keys[i], vals[i] = k, v
}

// down drops (k, v) into the hole at top. The hole first walks to a leaf,
// pulling the smaller child (left on ties) up at each level; then (k, v)
// climbs back toward top while the parent is not smaller. The entries it
// passes return to where they were, so the result is the top-down sift's.
//
// The walk is a chain of dependent loads: which child's children to read
// next depends on the comparison just made. Where both levels below the
// hole are full, it reads both children and all four grandchildren at
// once, picks along the path the one-level walk would take, and moves the
// hole two levels; the ragged bottom falls back to one level per step.
// Which child is smaller is a coin flip the branch predictor loses half
// the time, so each pick is a 0/1 offset (a SETcc, not a jump).
func (h *minHeap[K, V]) down(top uint, k K, v V) {
	keys := h.keys
	vals := h.vals[:len(keys)]
	n := uint(len(keys))
	i := top
	for g := 4*i + 3; g+3 < n; g = 4*i + 3 {
		c := 2*i + 1
		c0, c1 := keys[c], keys[c+1]
		g0, g1, g2, g3 := keys[g], keys[g+1], keys[g+2], keys[g+3]
		right := uint(0)
		if c1 < c0 {
			right = 1
		}
		if right != 0 { // a CMOV: loading g2, g3 here would compile to a jump
			g0, g1 = g2, g3
		}
		below := uint(0)
		if g1 < g0 {
			below = 1
		}
		c += right
		g += 2*right + below
		keys[i], vals[i] = keys[c], vals[c]
		keys[c], vals[c] = keys[g], vals[g]
		i = g
	}
	for {
		c := 2*i + 1
		if c+1 >= n {
			if c < n { // a lone left child
				keys[i], vals[i] = keys[c], vals[c]
				i = c
			}
			break
		}
		right := uint(0)
		if keys[c+1] < keys[c] {
			right = 1
		}
		c += right
		keys[i], vals[i] = keys[c], vals[c]
		i = c
	}
	for i > top {
		p := (i - 1) / 2
		pk := keys[p]
		if pk < k {
			break
		}
		keys[i], vals[i] = pk, vals[p]
		i = p
	}
	keys[i], vals[i] = k, v
}
