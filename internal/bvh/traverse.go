package bvh

import (
	"zatel/internal/scene"
	"zatel/internal/vecmath"
)

// Packed traversal step layout: node index in the high 24 bits, triangle
// test count in the low 8. It is the step's full form, the one the
// rt.workload/v1 disk format stores; resident traces hold the shorter
// word form below (AppendStep). Tree sizes in this repository stay far
// below 2^24 nodes; BuildWorkload enforces the limit.
const (
	stepNodeShift = 8
	stepTriMask   = 0xff
	// MaxPackedNode is the largest node index PackStep can represent.
	MaxPackedNode = 1<<24 - 1
)

// PackStep encodes a traversal step. Triangle-test counts saturate at 255.
func PackStep(node int32, triTests int32) uint32 {
	if triTests > stepTriMask {
		triTests = stepTriMask
	}
	return uint32(node)<<stepNodeShift | uint32(triTests)
}

// UnpackStep decodes a traversal step.
func UnpackStep(s uint32) (node int32, triTests int32) {
	return int32(s >> stepNodeShift), int32(s & stepTriMask)
}

// Step word layout. A ray's steps are stored as 16-bit words, each coded
// against the node of the ray's previous step (node 0 for its first
// step). Consecutive steps of a depth-first traversal mostly visit nearby
// nodes of the depth-first node array, so most steps take one word:
//
//	bit 0 clear: one step; bits 4–15 hold the signed node delta
//	             (−2048…2047), bits 1–3 the triangle tests (0–7)
//	bit 0 set:   an escape (the word is exactly 1), followed by the
//	             step's PackStep form in two words, low half first
const (
	wordEscape     = 1
	wordTestsShift = 1
	wordTestsMask  = 7
	wordDeltaShift = 4
	wordDeltaBias  = 1 << 11 // −wordDeltaBias is the smallest delta a word holds
)

// fitsWord reports whether a step with node delta d and tests triangle
// tests takes one word.
func fitsWord(d, tests int32) bool {
	return uint32(d+wordDeltaBias) < 2*wordDeltaBias && uint32(tests) <= wordTestsMask
}

// StepWords returns how many words AppendStep takes for step (node, tests)
// after a step at node prev: 1, or 3 for an escape.
func StepWords(prev, node, tests int32) int {
	if fitsWord(node-prev, tests) {
		return 1
	}
	return 3
}

// AppendStep appends step (node, tests) of a ray whose previous step
// visited node prev (0 before its first step). Triangle-test counts
// saturate at 255, as in PackStep.
func AppendStep(words []uint16, prev, node, tests int32) []uint16 {
	if d := node - prev; fitsWord(d, tests) {
		return append(words, uint16(d)<<wordDeltaShift|uint16(tests)<<wordTestsShift)
	}
	s := PackStep(node, tests)
	return append(words, wordEscape, uint16(s), uint16(s>>16))
}

// DecodeStep decodes the step whose first word is words[i], of a ray whose
// previous step visited node prev (0 before its first step). It returns
// the step and the index of the word after it.
func DecodeStep(words []uint16, i int, prev int32) (node, tests int32, next int) {
	return DecodeWord(words, i, words[i], prev)
}

// DecodeWord is DecodeStep for a caller that holds the step's first word
// w = words[i] already: it reads words only for an escape.
func DecodeWord(words []uint16, i int, w uint16, prev int32) (node, tests int32, next int) {
	if w&wordEscape == 0 {
		return prev + int32(int16(w))>>wordDeltaShift, int32(w>>wordTestsShift) & wordTestsMask, i + 1
	}
	node, tests = UnpackStep(uint32(words[i+1]) | uint32(words[i+2])<<16)
	return node, tests, i + 3
}

// Recorder collects traced rays' traversal steps, back to back, in step
// word form (see AppendStep), and counts them as it goes, so no second pass
// over the words is needed to total a pixel's traversal work.
type Recorder struct {
	Words []uint16
	// Steps and Tests total the recorded steps and their triangle tests;
	// tests count as stored, saturated at 255 per step.
	Steps, Tests uint64
}

// Hit describes the nearest intersection found.
type Hit struct {
	// T is the hit distance along the ray.
	T float32
	// Tri is the index of the hit triangle in the original scene order.
	Tri int32
	// Slot is the leaf-order position of the triangle (for TriAddr).
	Slot int32
}

// maxStack bounds the traversal stack, which never holds more entries than
// the tree has levels. A BVH over n triangles can be n levels deep, so
// Build refuses a tree that would reach maxStack levels; SAH trees over the
// library scenes stay well under 64.
const maxStack = 96

// ray holds one ray's traversal operands, hoisted out of vecmath.Ray once
// per traversal. The box and triangle tests borrow it by pointer instead of
// copying the whole Ray at every call, and perform exactly the float
// operations of AABB.Hit and Triangle.Hit in the same order, so hits and
// step sequences are bit-identical to those methods.
type ray struct {
	org, dir, inv vecmath.Vec3
	tmin          float32
}

// box is AABB.Hit over the interval [r.tmin, tmax].
func (r *ray) box(b *vecmath.AABB, tmax float32) (float32, bool) {
	t0, t1 := slab(b.Lo.X, b.Hi.X, r.org.X, r.inv.X, r.tmin, tmax)
	t0, t1 = slab(b.Lo.Y, b.Hi.Y, r.org.Y, r.inv.Y, t0, t1)
	t0, t1 = slab(b.Lo.Z, b.Hi.Z, r.org.Z, r.inv.Z, t0, t1)
	return t0, t0 <= t1
}

// boxes is box against the two children of a node in one call, letting
// their independent slab chains overlap.
func (r *ray) boxes(a, b *vecmath.AABB, tmax float32) (ta float32, ha bool, tb float32, hb bool) {
	ta, a1 := slab(a.Lo.X, a.Hi.X, r.org.X, r.inv.X, r.tmin, tmax)
	tb, b1 := slab(b.Lo.X, b.Hi.X, r.org.X, r.inv.X, r.tmin, tmax)
	ta, a1 = slab(a.Lo.Y, a.Hi.Y, r.org.Y, r.inv.Y, ta, a1)
	tb, b1 = slab(b.Lo.Y, b.Hi.Y, r.org.Y, r.inv.Y, tb, b1)
	ta, a1 = slab(a.Lo.Z, a.Hi.Z, r.org.Z, r.inv.Z, ta, a1)
	tb, b1 = slab(b.Lo.Z, b.Hi.Z, r.org.Z, r.inv.Z, tb, b1)
	return ta, ta <= a1, tb, tb <= b1
}

// slab narrows [t0, t1] to where a ray with origin o and reciprocal
// direction inv lies between lo and hi along one axis.
func slab(lo, hi, o, inv, t0, t1 float32) (float32, float32) {
	ta := (lo - o) * inv
	tb := (hi - o) * inv
	if ta > tb {
		ta, tb = tb, ta
	}
	return max(t0, ta), min(t1, tb)
}

// tri is Triangle.Hit over the interval [r.tmin, tmax].
func (r *ray) tri(t *scene.Triangle, tmax float32) (float32, bool) {
	e1 := t.V1.Sub(t.V0)
	e2 := t.V2.Sub(t.V0)
	p := r.dir.Cross(e2)
	det := e1.Dot(p)
	if det > -1e-7 && det < 1e-7 {
		return 0, false
	}
	inv := 1 / det
	s := r.org.Sub(t.V0)
	u := s.Dot(p) * inv
	if u < 0 || u > 1 {
		return 0, false
	}
	q := s.Cross(e1)
	v := r.dir.Dot(q) * inv
	if v < 0 || u+v > 1 {
		return 0, false
	}
	dist := e2.Dot(q) * inv
	if dist < r.tmin || dist > tmax {
		return 0, false
	}
	return dist, true
}

// IntersectPacked finds the nearest triangle intersection along r and
// records every fetched node in rec as one step of a new ray: interior
// nodes before their children, leaves after their triangle tests. Of two
// hit children the nearer is visited first. It returns the hit and whether
// one was found.
func (b *BVH) IntersectPacked(r vecmath.Ray, rec *Recorder) (Hit, bool) {
	best := Hit{T: r.TMax, Tri: -1, Slot: -1}
	if len(b.Nodes) == 0 {
		return best, false
	}
	ro := ray{r.Origin, r.Dir, r.InvDir, r.TMin}
	if _, ok := ro.box(&b.Nodes[0].Bounds, r.TMax); !ok {
		return best, false
	}

	var stack [maxStack]int32
	sp := 0
	stack[sp] = 0
	sp++
	out, prev, steps, tests := rec.Words, int32(0), rec.Steps, rec.Tests

	for sp > 0 {
		sp--
		ni := stack[sp]
		node := &b.Nodes[ni]

		if node.Leaf() {
			for i := node.FirstTri; i < node.FirstTri+node.TriCount; i++ {
				ti := b.TriIndex[i]
				if t, ok := ro.tri(&b.Tris[ti], best.T); ok {
					best = Hit{T: t, Tri: ti, Slot: i}
				}
			}
			tc := min(node.TriCount, stepTriMask)
			out = AppendStep(out, prev, ni, tc)
			prev, steps, tests = ni, steps+1, tests+uint64(tc)
			continue
		}

		out = AppendStep(out, prev, ni, 0)
		prev, steps = ni, steps+1

		// Test both children (their boxes travel with the parent fetch in
		// hardware layouts) and push the nearer one last so it pops first.
		li, ri := ni+1, node.Right
		tl, hl, tr, hr := ro.boxes(&b.Nodes[li].Bounds, &b.Nodes[ri].Bounds, best.T)
		switch {
		case hl && hr:
			if tl > tr {
				li, ri = ri, li
			}
			stack[sp] = ri
			sp++
			stack[sp] = li
			sp++
		case hl:
			stack[sp] = li
			sp++
		case hr:
			stack[sp] = ri
			sp++
		}
	}
	rec.Words, rec.Steps, rec.Tests = out, steps, tests
	return best, best.Tri >= 0
}

// IntersectAnyPacked reports whether any triangle blocks r within its
// interval — the shadow-ray query — recording its steps in rec as
// IntersectPacked does. Of two hit children the right is visited first,
// and it exits on the first hit.
func (b *BVH) IntersectAnyPacked(r vecmath.Ray, rec *Recorder) bool {
	if len(b.Nodes) == 0 {
		return false
	}
	ro, tmax := ray{r.Origin, r.Dir, r.InvDir, r.TMin}, r.TMax
	if _, ok := ro.box(&b.Nodes[0].Bounds, tmax); !ok {
		return false
	}

	var stack [maxStack]int32
	sp := 0
	stack[sp] = 0
	sp++
	out, prev, steps, tests := rec.Words, int32(0), rec.Steps, rec.Tests

	for sp > 0 {
		sp--
		ni := stack[sp]
		node := &b.Nodes[ni]

		if node.Leaf() {
			tc, blocked := int32(0), false
			for i := node.FirstTri; i < node.FirstTri+node.TriCount; i++ {
				tc++
				if _, ok := ro.tri(&b.Tris[b.TriIndex[i]], tmax); ok {
					blocked = true
					break
				}
			}
			tc = min(tc, stepTriMask)
			out = AppendStep(out, prev, ni, tc)
			prev, steps, tests = ni, steps+1, tests+uint64(tc)
			if blocked {
				rec.Words, rec.Steps, rec.Tests = out, steps, tests
				return true
			}
			continue
		}

		out = AppendStep(out, prev, ni, 0)
		prev, steps = ni, steps+1
		li, ri := ni+1, node.Right
		_, hl, _, hr := ro.boxes(&b.Nodes[li].Bounds, &b.Nodes[ri].Bounds, tmax)
		if hl {
			stack[sp] = li
			sp++
		}
		if hr {
			stack[sp] = ri
			sp++
		}
	}
	rec.Words, rec.Steps, rec.Tests = out, steps, tests
	return false
}

// Stats summarises structural quality of the tree.
type Stats struct {
	Nodes       int
	Leaves      int
	MaxDepth    int
	MaxLeafTris int
	// SAHCost is the expected traversal cost under the surface-area
	// heuristic, normalised by the root area.
	SAHCost float64
}

// ComputeStats walks the tree and returns its Stats.
func (b *BVH) ComputeStats() Stats {
	var st Stats
	st.Nodes = len(b.Nodes)
	rootArea := float64(b.Nodes[0].Bounds.SurfaceArea())

	type item struct {
		node  int32
		depth int
	}
	stack := []item{{0, 1}}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &b.Nodes[it.node]
		if it.depth > st.MaxDepth {
			st.MaxDepth = it.depth
		}
		area := float64(n.Bounds.SurfaceArea())
		if n.Leaf() {
			st.Leaves++
			if int(n.TriCount) > st.MaxLeafTris {
				st.MaxLeafTris = int(n.TriCount)
			}
			if rootArea > 0 {
				st.SAHCost += area / rootArea * float64(n.TriCount)
			}
			continue
		}
		if rootArea > 0 {
			st.SAHCost += area / rootArea
		}
		stack = append(stack, item{it.node + 1, it.depth + 1}, item{n.Right, it.depth + 1})
	}
	return st
}
