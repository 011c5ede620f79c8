// Package bvh implements the bounding volume hierarchy acceleration
// structure: a binned-SAH builder over scene triangles, ordered stack
// traversal, and the node memory layout consumed by the GPU timing model
// (every traversal step has a concrete byte address so cache and DRAM
// behaviour can be simulated faithfully).
package bvh

import (
	"fmt"
	"math"

	"zatel/internal/scene"
	"zatel/internal/vecmath"
)

// Memory layout constants shared with the timing model. The BVH node pool
// and triangle pool live in distinct address regions so cache-set conflicts
// between node and triangle fetches behave realistically.
const (
	// NodeBase is the byte address of node 0.
	NodeBase uint64 = 0x1000_0000
	// NodeBytes is the size of one BVH2 node record.
	NodeBytes uint64 = 32
	// TriBase is the byte address of triangle record 0.
	TriBase uint64 = 0x2000_0000
	// TriBytes is the size of one packed triangle record.
	TriBytes uint64 = 48
)

// Node is one flat-array BVH2 node. Interior nodes store the index of their
// right child (the left child is the next array slot); leaves store a
// triangle range into BVH.TriIndex.
type Node struct {
	Bounds vecmath.AABB
	// Right is the right-child index for interior nodes; leaves hold -1.
	Right int32
	// FirstTri and TriCount describe the leaf's triangle range. Interior
	// nodes hold TriCount == 0.
	FirstTri int32
	TriCount int32
}

// Leaf reports whether the node is a leaf.
func (n *Node) Leaf() bool { return n.TriCount > 0 }

// BVH is an immutable acceleration structure over a scene's triangles.
type BVH struct {
	Nodes []Node
	// TriIndex maps leaf-order positions to indices into Tris.
	TriIndex []int32
	// Tris aliases the source scene's triangle slice.
	Tris []scene.Triangle
}

// NodeAddr returns the simulated byte address of node i.
func NodeAddr(i int32) uint64 { return NodeBase + uint64(i)*NodeBytes }

// TriAddr returns the simulated byte address of leaf-order triangle slot i.
func TriAddr(i int32) uint64 { return TriBase + uint64(i)*TriBytes }

// Options configures the builder.
type Options struct {
	// MaxLeafSize is the largest number of triangles a leaf may hold.
	MaxLeafSize int
	// Bins is the number of SAH bins per axis.
	Bins int
}

// DefaultOptions match the values used throughout the evaluation.
func DefaultOptions() Options { return Options{MaxLeafSize: 4, Bins: 16} }

// Build constructs a BVH over the scene's triangles. The right subtree of
// every split with at least minFork triangles on each side is built
// concurrently on a forked builder and spliced back in depth-first order,
// so the node array is identical to a serial build.
func Build(s *scene.Scene, opt Options) (*BVH, error) { return build(s, opt, minFork) }

// minFork is the smallest side of a split that Build forks at: large
// enough that a fork's goroutine and splice are noise next to its work.
const minFork = 1024

// build is Build forking at splits whose sides both hold minFork
// triangles or more.
func build(s *scene.Scene, opt Options, minFork int) (*BVH, error) {
	if len(s.Tris) == 0 {
		return nil, fmt.Errorf("bvh: scene %s has no triangles", s.Name)
	}
	if opt.MaxLeafSize <= 0 {
		return nil, fmt.Errorf("bvh: MaxLeafSize %d must be positive", opt.MaxLeafSize)
	}
	if opt.Bins < 2 {
		return nil, fmt.Errorf("bvh: Bins %d must be at least 2", opt.Bins)
	}

	n := len(s.Tris)
	empty := make([]bin, opt.Bins)
	for k := range empty {
		empty[k] = bin{bounds: vecmath.EmptyAABB(), cents: vecmath.EmptyAABB()}
	}
	b := (&builder{common: common{opt: opt, minFork: minFork, prims: make([]prim, n), empty: empty}}).fork(n)
	for i, t := range s.Tris {
		b.prims[i] = prim{bounds: t.Bounds(), cent: t.Centroid(), tri: int32(i)}
	}
	if _, err := b.buildRange(0, n, 1, b.rangeBin(0, n)); err != nil {
		return nil, fmt.Errorf("bvh: building %s: %w", s.Name, err)
	}
	triIndex := make([]int32, n)
	for i := range b.prims {
		triIndex[i] = b.prims[i].tri
	}
	return &BVH{Nodes: b.nodes, TriIndex: triIndex, Tris: s.Tris}, nil
}

// prim is one triangle's build record. Partitions move the records
// themselves, so a node's triangles are always a contiguous run of prims
// and every scan is sequential; the final order of tri is TriIndex.
type prim struct {
	bounds vecmath.AABB
	cent   vecmath.Vec3
	tri    int32
	// bin is the record's SAH bin while its node is split.
	bin int32
}

// bin accumulates the triangles of one SAH bin, or a run of bins.
type bin struct {
	bounds, cents vecmath.AABB
	count         int
}

// common is what every builder of one build shares. Builders touch
// disjoint ranges of prims; empty, a row of empty bins, is read-only.
type common struct {
	opt     Options
	minFork int
	prims   []prim
	empty   []bin
}

// builder emits one subtree into its own node slice, with node indices
// local to that slice. bins and right are scratch reused at every node. A
// forked builder's err is valid once done is closed.
type builder struct {
	common
	nodes       []Node
	bins, right []bin
	done        chan struct{}
	err         error
}

// fork returns a builder for a subtree over n triangles. Its node pool is
// pre-sized to n nodes: a BVH2 over n triangles can need 2n-1, but binned
// SAH trees over the library scenes stay near 0.7 per triangle, and append
// grows the pool for a tree that does not.
func (b *builder) fork(n int) *builder {
	return &builder{
		common: b.common,
		nodes:  make([]Node, 0, n),
		bins:   make([]bin, b.opt.Bins),
		right:  make([]bin, b.opt.Bins),
	}
}

// rangeBin scans prims[lo:hi] into one bin.
func (b *builder) rangeBin(lo, hi int) bin {
	in := bin{bounds: vecmath.EmptyAABB(), cents: vecmath.EmptyAABB(), count: hi - lo}
	for i := lo; i < hi; i++ {
		in.bounds = in.bounds.Extend(b.prims[i].bounds)
		in.cents = in.cents.ExtendPoint(b.prims[i].cent)
	}
	return in
}

// buildRange emits the subtree covering prims[lo:hi], whose triangle
// and centroid bounds are in, at depth (the root is 1), and returns its
// node index. It errors instead of
// panicking when the tree would outgrow the traversal stack or the
// flat-layout invariant (left child contiguous with its parent) is
// violated, so a bad build surfaces through the workload pipeline rather
// than killing a worker.
func (b *builder) buildRange(lo, hi, depth int, in bin) (int32, error) {
	if depth >= maxStack {
		return 0, fmt.Errorf("tree depth reaches the %d-entry traversal stack", maxStack)
	}
	idx := int32(len(b.nodes))
	b.nodes = append(b.nodes, Node{Bounds: in.bounds, Right: -1})

	count := hi - lo
	if count <= b.opt.MaxLeafSize {
		b.nodes[idx].FirstTri = int32(lo)
		b.nodes[idx].TriCount = int32(count)
		return idx, nil
	}

	split, l, r := b.chooseSplit(lo, hi, in.cents)
	if split <= lo || split >= hi {
		// Degenerate centroid distribution: fall back to a median split,
		// which always leaves both halves non-empty since count >= 2.
		b.sortRange(lo, hi, in.cents.Diagonal().MaxAxis())
		split = lo + count/2
		l, r = b.rangeBin(lo, split), b.rangeBin(split, hi)
	}

	var fork *builder
	if min(split-lo, hi-split) >= b.minFork {
		fork = b.goBuild(split, hi, depth+1, r)
	}
	// The left child always follows the parent contiguously.
	left, err := b.buildRange(lo, split, depth+1, l)
	if fork != nil {
		<-fork.done
	}
	if err != nil {
		return 0, err
	}
	if left != idx+1 {
		return 0, fmt.Errorf("left child %d of node %d not contiguous", left, idx)
	}
	if fork == nil {
		b.nodes[idx].Right, err = b.buildRange(split, hi, depth+1, r)
		return idx, err
	}
	if fork.err != nil {
		return 0, fork.err
	}
	// Splice the forked subtree where a serial build would have put it.
	off := int32(len(b.nodes))
	for _, n := range fork.nodes {
		if !n.Leaf() {
			n.Right += off
		}
		b.nodes = append(b.nodes, n)
	}
	b.nodes[idx].Right = off
	return idx, nil
}

// goBuild starts building the subtree over prims[lo:hi], whose bounds
// are in, on a forked builder running on its own goroutine.
func (b *builder) goBuild(lo, hi, depth int, in bin) *builder {
	f := b.fork(hi - lo)
	f.done = make(chan struct{})
	go func() {
		defer close(f.done)
		_, f.err = f.buildRange(lo, hi, depth, in)
	}()
	return f
}

// chooseSplit runs binned SAH over the centroid bounds cb and partitions
// prims[lo:hi]. It returns the partition point and the accumulated bins
// of the two sides, whose bounds are exactly the children's node and
// centroid bounds (min and max are exact and order-independent). A split
// at lo means no plane separates the range.
func (b *builder) chooseSplit(lo, hi int, cb vecmath.AABB) (split int, l, r bin) {
	axis := cb.Diagonal().MaxAxis()
	extent := cb.Diagonal().Axis(axis)
	if extent <= 0 {
		return lo, l, r // degenerate; caller falls back
	}

	bs, right := b.bins, b.right
	nbins := len(bs)
	copy(bs, b.empty)
	base := cb.Lo.Axis(axis)
	for i := lo; i < hi; i++ {
		p := &b.prims[i]
		k := int((p.cent.Axis(axis) - base) / extent * float32(nbins))
		k = min(max(k, 0), nbins-1)
		p.bin = int32(k)
		bk := &bs[k]
		bk.bounds = bk.bounds.Extend(p.bounds)
		bk.cents = bk.cents.ExtendPoint(p.cent)
		bk.count++
	}

	// Sweep to find the split plane minimising the SAH cost
	// leftArea·leftCount + rightArea·rightCount; right[k] accumulates bins
	// k and above.
	var acc bin
	for k := nbins - 1; k >= 1; k-- {
		acc.add(&bs[k])
		right[k] = acc
	}
	bestCost := float32(math.Inf(1))
	bestPlane := -1
	acc = bin{}
	for k := 0; k < nbins-1; k++ {
		acc.add(&bs[k])
		rk := &right[k+1]
		if acc.count == 0 || rk.count == 0 {
			continue
		}
		cost := acc.bounds.SurfaceArea()*float32(acc.count) + rk.bounds.SurfaceArea()*float32(rk.count)
		if cost < bestCost {
			bestCost, bestPlane, l = cost, k, acc
		}
	}
	if bestPlane < 0 {
		return lo, l, r
	}

	// In-place partition by bin index.
	i, j := lo, hi-1
	for i <= j {
		if b.prims[i].bin <= int32(bestPlane) {
			i++
		} else {
			b.prims[i], b.prims[j] = b.prims[j], b.prims[i]
			j--
		}
	}
	return i, l, right[bestPlane+1]
}

// add merges o into a. Builtin min and max are exact, so the bounds do not
// depend on the order bins and triangles are merged in.
func (a *bin) add(o *bin) {
	switch {
	case o.count == 0:
	case a.count == 0:
		*a = *o
	default:
		a.bounds, a.cents = a.bounds.Extend(o.bounds), a.cents.Extend(o.cents)
		a.count += o.count
	}
}

// sortRange orders prims[lo:hi] by centroid along axis with an insertion
// sort. It backs only the degenerate-split fallback, which fires when
// binning cannot separate the centroids.
func (b *builder) sortRange(lo, hi, axis int) {
	sub := b.prims[lo:hi]
	for i := 1; i < len(sub); i++ {
		v := sub[i]
		key := v.cent.Axis(axis)
		j := i - 1
		for j >= 0 && sub[j].cent.Axis(axis) > key {
			sub[j+1] = sub[j]
			j--
		}
		sub[j+1] = v
	}
}
