package bvh

import (
	"math"
	"slices"
	"sync"
	"testing"

	"zatel/internal/scene"
	"zatel/internal/vecmath"
)

func buildScene(t *testing.T, name string) (*scene.Scene, *BVH) {
	t.Helper()
	s, err := scene.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return s, b
}

func TestBuildRejectsBadInputs(t *testing.T) {
	s, err := scene.ByName("SPRNG")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(s, Options{MaxLeafSize: 0, Bins: 8}); err == nil {
		t.Error("MaxLeafSize 0 accepted")
	}
	if _, err := Build(s, Options{MaxLeafSize: 4, Bins: 1}); err == nil {
		t.Error("Bins 1 accepted")
	}
	empty := &scene.Scene{Name: "empty"}
	if _, err := Build(empty, DefaultOptions()); err == nil {
		t.Error("empty scene accepted")
	}
}

// Every triangle appears exactly once in leaf order.
func TestTriIndexIsPermutation(t *testing.T) {
	for _, name := range scene.Names() {
		s, b := buildScene(t, name)
		if len(b.TriIndex) != len(s.Tris) {
			t.Fatalf("%s: TriIndex size %d != %d tris", name, len(b.TriIndex), len(s.Tris))
		}
		seen := make([]bool, len(s.Tris))
		for _, ti := range b.TriIndex {
			if ti < 0 || int(ti) >= len(s.Tris) {
				t.Fatalf("%s: index %d out of range", name, ti)
			}
			if seen[ti] {
				t.Fatalf("%s: triangle %d duplicated", name, ti)
			}
			seen[ti] = true
		}
	}
}

// Every node's bounds must contain all triangles in its subtree, and leaf
// ranges must tile [0, n) exactly.
func TestTreeInvariants(t *testing.T) {
	for _, name := range []string{"SPRNG", "BUNNY", "PARK"} {
		s, b := buildScene(t, name)
		covered := make([]bool, len(s.Tris))
		var walk func(ni int32) vecmath.AABB
		walk = func(ni int32) vecmath.AABB {
			n := &b.Nodes[ni]
			if n.Leaf() {
				box := vecmath.EmptyAABB()
				for i := n.FirstTri; i < n.FirstTri+n.TriCount; i++ {
					slot := b.TriIndex[i]
					if covered[slot] {
						t.Fatalf("%s: slot %d in two leaves", name, slot)
					}
					covered[slot] = true
					box = box.Extend(b.Tris[slot].Bounds())
				}
				if !contains(n.Bounds, box) {
					t.Fatalf("%s: leaf %d bounds too small", name, ni)
				}
				return box
			}
			l := walk(ni + 1)
			r := walk(n.Right)
			both := l.Extend(r)
			if !contains(n.Bounds, both) {
				t.Fatalf("%s: interior %d bounds too small", name, ni)
			}
			return both
		}
		walk(0)
		for i, c := range covered {
			if !c {
				t.Fatalf("%s: triangle %d missing from leaves", name, i)
			}
		}
	}
}

func contains(outer, inner vecmath.AABB) bool {
	const eps = 1e-3
	return outer.Lo.X <= inner.Lo.X+eps && outer.Lo.Y <= inner.Lo.Y+eps &&
		outer.Lo.Z <= inner.Lo.Z+eps && outer.Hi.X >= inner.Hi.X-eps &&
		outer.Hi.Y >= inner.Hi.Y-eps && outer.Hi.Z >= inner.Hi.Z-eps
}

func TestLeafSizeRespected(t *testing.T) {
	_, b := buildScene(t, "PARK")
	st := b.ComputeStats()
	if st.MaxLeafTris > DefaultOptions().MaxLeafSize {
		t.Errorf("max leaf %d exceeds limit %d", st.MaxLeafTris, DefaultOptions().MaxLeafSize)
	}
	if st.MaxDepth >= maxStack {
		t.Errorf("depth %d would overflow the traversal stack", st.MaxDepth)
	}
}

// closest is the brute-force oracle: every triangle's Hit, keeping the
// nearest distance.
func closest(s *scene.Scene, r vecmath.Ray) (float32, bool) {
	bestT, found := r.TMax, false
	for _, tri := range s.Tris {
		if t, ok := tri.Hit(r); ok && t <= bestT {
			bestT, found = t, true
		}
	}
	return bestT, found
}

// Traversal must agree with brute force on the nearest hit: the same
// distance bit for bit, a triangle that hits at that distance, and a slot
// that maps to it.
func TestIntersectMatchesBruteForce(t *testing.T) {
	for _, name := range []string{"BUNNY", "SPNZA", "CHSNT"} {
		s, b := buildScene(t, name)
		cam := s.Cam
		cam.Finalize(1)
		rng := vecmath.NewRNG(99)
		var rec Recorder
		for i := 0; i < 300; i++ {
			r := cam.Ray(rng.Float32(), rng.Float32())
			hit, ok := b.IntersectPacked(r, &rec)
			wantT, want := closest(s, r)
			if ok != want {
				t.Fatalf("%s ray %d: bvh ok=%v brute=%v", name, i, ok, want)
			}
			if !ok {
				continue
			}
			if hit.T != wantT {
				t.Fatalf("%s ray %d: bvh t=%v brute t=%v", name, i, hit.T, wantT)
			}
			if tt, hok := s.Tris[hit.Tri].Hit(r); !hok || tt != hit.T {
				t.Fatalf("%s ray %d: triangle %d does not hit at t=%v", name, i, hit.Tri, hit.T)
			}
			if b.TriIndex[hit.Slot] != hit.Tri {
				t.Fatalf("%s ray %d: slot %d holds %d, not %d", name, i, hit.Slot, b.TriIndex[hit.Slot], hit.Tri)
			}
		}
	}
}

// The traversal kernels must compute bit for bit what AABB.Hit and
// Triangle.Hit compute, including for axis-parallel rays whose slab tests
// meet infinities and NaNs.
func TestKernelsMatchHitMethods(t *testing.T) {
	s, b := buildScene(t, "SPNZA")
	cam := s.Cam
	cam.Finalize(1)
	rng := vecmath.NewRNG(5)
	for i := 0; i < 64; i++ {
		r := cam.Ray(rng.Float32(), rng.Float32())
		if i%4 == 0 {
			r = vecmath.NewRay(b.Nodes[0].Bounds.Center(), vecmath.V(0, float32(i%8/4*2-1), 0))
		}
		r.TMax = 1 + 20*rng.Float32()
		ro := ray{r.Origin, r.Dir, r.InvDir, r.TMin}
		for ni := 0; ni+1 < len(b.Nodes); ni++ {
			lo, hi := &b.Nodes[ni].Bounds, &b.Nodes[ni+1].Bounds
			t0, ok0 := lo.Hit(r)
			t1, ok1 := hi.Hit(r)
			ta, oka := ro.box(lo, r.TMax)
			tb, okb, tc, okc := ro.boxes(lo, hi, r.TMax)
			if math.Float32bits(t0) != math.Float32bits(ta) || ok0 != oka ||
				math.Float32bits(t0) != math.Float32bits(tb) || ok0 != okb ||
				math.Float32bits(t1) != math.Float32bits(tc) || ok1 != okc {
				t.Fatalf("ray %d node %d: AABB.Hit (%v,%v) (%v,%v), box (%v,%v), boxes (%v,%v) (%v,%v)",
					i, ni, t0, ok0, t1, ok1, ta, oka, tb, okb, tc, okc)
			}
		}
		for ti := range s.Tris {
			tw, okw := s.Tris[ti].Hit(r)
			tg, okg := ro.tri(&s.Tris[ti], r.TMax)
			if math.Float32bits(tw) != math.Float32bits(tg) || okw != okg {
				t.Fatalf("ray %d tri %d: Triangle.Hit (%v,%v), tri (%v,%v)", i, ti, tw, okw, tg, okg)
			}
		}
	}
}

// The shadow query must report a hit exactly when some triangle blocks the
// ray, and agree with the closest-hit query.
func TestIntersectAnyAgreesWithIntersect(t *testing.T) {
	s, b := buildScene(t, "CHSNT")
	cam := s.Cam
	cam.Finalize(1)
	rng := vecmath.NewRNG(123)
	var rec Recorder
	for i := 0; i < 500; i++ {
		r := cam.Ray(rng.Float32(), rng.Float32())
		if i%2 == 1 {
			// Shorten every other ray so some blockers fall outside it.
			r.TMax = 1 + 4*rng.Float32()
		}
		_, full := b.IntersectPacked(r, &rec)
		any := b.IntersectAnyPacked(r, &rec)
		_, want := closest(s, r)
		if full != any || any != want {
			t.Fatalf("ray %d: IntersectPacked=%v IntersectAnyPacked=%v brute=%v", i, full, any, want)
		}
	}
}

// decodeRay decodes one ray's step words into PackStep form.
func decodeRay(words []uint16) []uint32 {
	var steps []uint32
	prev := int32(0)
	for i := 0; i < len(words); {
		var tests int32
		prev, tests, i = DecodeStep(words, i, prev)
		steps = append(steps, PackStep(prev, tests))
	}
	return steps
}

// Recorded steps name real nodes with their true triangle-test counts, the
// recorder's totals count them, and re-tracing a ray records the same
// sequence.
func TestVisitStepsConsistent(t *testing.T) {
	_, b := buildScene(t, "BUNNY")
	r := vecmath.NewRay(vecmath.V(0, 0.8, -1.2), vecmath.V(0.02, 0.02, 1).Norm())
	var rec Recorder
	_, _ = b.IntersectPacked(r, &rec)
	steps := decodeRay(rec.Words)
	if len(steps) == 0 {
		t.Fatal("no steps recorded for a ray aimed at the bunny")
	}
	var tris uint64
	for _, st := range steps {
		ni, tests := UnpackStep(st)
		if n := &b.Nodes[ni]; tests != n.TriCount {
			t.Errorf("node %d (leaf %v) tested %d of %d tris", ni, n.Leaf(), tests, n.TriCount)
		}
		tris += uint64(tests)
	}
	if rec.Steps != uint64(len(steps)) || rec.Tests != tris {
		t.Errorf("recorder counted %d steps and %d tests, its words hold %d and %d", rec.Steps, rec.Tests, len(steps), tris)
	}
	var again Recorder
	_, _ = b.IntersectPacked(r, &again)
	if !slices.Equal(rec.Words, again.Words) {
		t.Fatalf("re-traversal recorded %v, first %v", again.Words, rec.Words)
	}
	var shadow Recorder
	if !b.IntersectAnyPacked(r, &shadow) {
		t.Fatal("shadow query missed the bunny")
	}
	ss := decodeRay(shadow.Words)
	last, tests := UnpackStep(ss[len(ss)-1])
	if n := &b.Nodes[last]; !n.Leaf() || tests < 1 || tests > n.TriCount {
		t.Errorf("shadow query ended on node %d with %d tests", last, tests)
	}
}

func TestMissingRayVisitsNothing(t *testing.T) {
	_, b := buildScene(t, "SPRNG")
	// Aim far away from the two objects.
	r := vecmath.NewRay(vecmath.V(0, 100, 0), vecmath.V(0, 1, 0))
	var rec Recorder
	if _, ok := b.IntersectPacked(r, &rec); ok {
		t.Error("ray into the void reported a hit")
	}
	if b.IntersectAnyPacked(r, &rec) {
		t.Error("ray into the void reported a blocker")
	}
	if len(rec.Words) != 0 || rec.Steps != 0 {
		t.Errorf("root-missing ray visited %d nodes in %d words", rec.Steps, len(rec.Words))
	}
}

// With two bins, a strip of triangles at x = 2.2^i only ever separates the
// farthest triangle from the rest, so the tree is as deep as the strip is
// long. The build must report that it outgrows the traversal stack instead
// of letting a trace worker index past it and panic.
func TestBuildTooDeepErrors(t *testing.T) {
	s := &scene.Scene{Name: "strip"}
	x := float32(1)
	for i := 0; i < maxStack+8; i++ {
		x *= 2.2
		s.Tris = append(s.Tris, scene.Triangle{V0: vecmath.V(x, 0, 0), V1: vecmath.V(x, 1, 0), V2: vecmath.V(x, 0, 1)})
	}
	opt := Options{MaxLeafSize: 1, Bins: 2}
	if _, err := Build(s, opt); err == nil {
		t.Fatal("degenerate strip built a tree deeper than the traversal stack")
	}
	s.Tris = s.Tris[:maxStack-8]
	if _, err := Build(s, opt); err != nil {
		t.Fatalf("shorter strip: %v", err)
	}
}

// Forked builders run concurrently with each other and with other builds;
// every result must equal a serial build node for node.
func TestBuildConcurrentDeterministic(t *testing.T) {
	for _, name := range scene.Names() {
		s, err := scene.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := build(s, DefaultOptions(), math.MaxInt)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]*BVH, 4)
		errs := make([]error, len(got))
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g], errs[g] = Build(s, DefaultOptions())
			}()
		}
		wg.Wait()
		for g, b := range got {
			if errs[g] != nil {
				t.Fatalf("%s build %d: %v", name, g, errs[g])
			}
			if !slices.Equal(b.Nodes, ref.Nodes) || !slices.Equal(b.TriIndex, ref.TriIndex) {
				t.Fatalf("%s build %d differs from the serial build", name, g)
			}
		}
	}
}

func TestNodeAddressing(t *testing.T) {
	if NodeAddr(0) != NodeBase {
		t.Errorf("NodeAddr(0) = %#x", NodeAddr(0))
	}
	if NodeAddr(3)-NodeAddr(2) != NodeBytes {
		t.Errorf("node stride = %d", NodeAddr(3)-NodeAddr(2))
	}
	if TriAddr(5)-TriAddr(4) != TriBytes {
		t.Errorf("tri stride = %d", TriAddr(5)-TriAddr(4))
	}
	if NodeAddr(1<<20) >= TriBase {
		t.Errorf("node pool overlaps triangle pool for large trees")
	}
}

func TestStatsSane(t *testing.T) {
	_, b := buildScene(t, "PARK")
	st := b.ComputeStats()
	if st.Leaves == 0 || st.Nodes < st.Leaves {
		t.Errorf("stats: %+v", st)
	}
	if st.SAHCost <= 0 {
		t.Errorf("SAH cost %v", st.SAHCost)
	}
	// A binned SAH tree over PARK must be reasonably balanced.
	if st.MaxDepth > 64 {
		t.Errorf("depth %d too deep for %d nodes", st.MaxDepth, st.Nodes)
	}
}

func TestPackStepRoundtrip(t *testing.T) {
	n, tt := UnpackStep(PackStep(MaxPackedNode, 300))
	if n != MaxPackedNode || tt != 255 {
		t.Fatalf("roundtrip = (%d, %d)", n, tt)
	}
}
