package rt

import (
	"context"
	"testing"
	"testing/quick"

	"zatel/internal/scene"
)

func TestPackUnpackStep(t *testing.T) {
	cases := []struct{ node, tris int32 }{
		{0, 0}, {1, 4}, {12345, 255}, {maxNodeIndex, 7},
	}
	for _, c := range cases {
		n, tt := UnpackStep(PackStep(c.node, c.tris))
		if n != c.node || tt != c.tris {
			t.Errorf("roundtrip (%d,%d) -> (%d,%d)", c.node, c.tris, n, tt)
		}
	}
}

func TestPackStepSaturatesTriTests(t *testing.T) {
	_, tt := UnpackStep(PackStep(5, 1000))
	if tt != 255 {
		t.Errorf("saturation gave %d", tt)
	}
}

func TestPackStepRoundtripProperty(t *testing.T) {
	f := func(node uint32, tris uint8) bool {
		n := int32(node % maxNodeIndex)
		gotN, gotT := UnpackStep(PackStep(n, int32(tris)))
		return gotN == n && gotT == int32(tris)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFilteredTrace(t *testing.T) {
	ft := FilteredTrace()
	if ft.Instructions() != 2 {
		t.Errorf("filtered trace issues %d instructions, want 2", ft.Instructions())
	}
	if ft.NumRays() != 0 {
		t.Errorf("filtered trace traced %d rays", ft.NumRays())
	}
	for i := range ft.NumOps() {
		if k := ft.Op(i).Kind; k == OpLoad || k == OpStore {
			t.Errorf("filtered trace touches memory")
		}
	}
}

func TestBuildWorkloadRejectsBadDims(t *testing.T) {
	s, err := scene.ByName("SPRNG")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ w, h, spp int }{{0, 8, 1}, {8, 0, 1}, {8, 8, 0}, {-1, 8, 1}} {
		if _, err := BuildWorkload(s, c.w, c.h, c.spp); err == nil {
			t.Errorf("dims %+v accepted", c)
		}
	}
}

func TestWorkloadShape(t *testing.T) {
	w, err := CachedWorkloadContext(context.Background(), "SPRNG", 32, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	if w.Pixels() != 1024 || len(w.Traces) != 1024 || len(w.Cost) != 1024 {
		t.Fatalf("workload shape wrong: pixels=%d traces=%d cost=%d",
			w.Pixels(), len(w.Traces), len(w.Cost))
	}
	for pix, tr := range w.Traces {
		if tr.NumOps() == 0 {
			t.Fatalf("pixel %d has empty trace", pix)
		}
		// Every trace begins with ray-generation compute and traces at
		// least one primary ray per sample.
		if k := tr.Op(0).Kind; k != OpCompute {
			t.Errorf("pixel %d trace starts with %v", pix, k)
		}
		prim := 0
		_, _, rays, _ := tr.parts()
		for _, r := range rays {
			if r.Kind == RayPrimary {
				prim++
			}
		}
		if prim != w.SPP {
			t.Errorf("pixel %d traced %d primary rays, want %d", pix, prim, w.SPP)
		}
		// OpTrace args must index the trace's rays.
		for i := range tr.NumOps() {
			if op := tr.Op(i); op.Kind == OpTrace && int(op.Arg) >= tr.NumRays() {
				t.Fatalf("pixel %d OpTrace arg %d out of range", pix, op.Arg)
			}
		}
		if w.Cost[pix] <= 0 {
			t.Errorf("pixel %d non-positive cost %v", pix, w.Cost[pix])
		}
	}
}

func TestWorkloadDeterministicAcrossBuilds(t *testing.T) {
	s, err := scene.ByName("CHSNT")
	if err != nil {
		t.Fatal(err)
	}
	a, err := BuildWorkload(s, 24, 24, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildWorkload(s, 24, 24, 2)
	if err != nil {
		t.Fatal(err)
	}
	for pix := range a.Traces {
		ta, tb := a.Traces[pix], b.Traces[pix]
		if ta.NumOps() != tb.NumOps() || ta.NumRays() != tb.NumRays() {
			t.Fatalf("pixel %d shape differs across builds", pix)
		}
		for i := range ta.NumOps() {
			if ta.Op(i) != tb.Op(i) {
				t.Fatalf("pixel %d op %d differs", pix, i)
			}
		}
		if a.Cost[pix] != b.Cost[pix] {
			t.Fatalf("pixel %d cost differs", pix)
		}
	}
}

func TestShadowRaysFollowHits(t *testing.T) {
	// Every hit spawns exactly one shadow ray, so shadow count can never
	// exceed primary+bounce count.
	w, err := CachedWorkloadContext(context.Background(), "SPNZA", 32, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	for pix, tr := range w.Traces {
		var prim, shadow, bounce int
		_, _, rays, _ := tr.parts()
		for _, r := range rays {
			switch r.Kind {
			case RayPrimary:
				prim++
			case RayShadow:
				shadow++
			case RayBounce:
				bounce++
			}
		}
		if shadow > prim+bounce {
			t.Fatalf("pixel %d: %d shadow rays for %d hitting rays", pix, shadow, prim+bounce)
		}
	}
}

func TestSceneHeatContrast(t *testing.T) {
	// The library's characterisation: BUNNY (warm, object fills frame)
	// must have a much higher mean pixel cost than SHIP (cold, mostly sky),
	// and SPRNG must leave most pixels near the minimum cost.
	costMean := func(name string) float64 {
		w, err := CachedWorkloadContext(context.Background(), name, 48, 48, 1)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, c := range w.Cost {
			sum += c
		}
		return sum / float64(len(w.Cost))
	}
	bunny, ship := costMean("BUNNY"), costMean("SHIP")
	if bunny < 2*ship {
		t.Errorf("BUNNY mean cost %.1f not ≫ SHIP %.1f", bunny, ship)
	}

	w, err := CachedWorkloadContext(context.Background(), "SPRNG", 48, 48, 1)
	if err != nil {
		t.Fatal(err)
	}
	maxCost := 0.0
	for _, c := range w.Cost {
		if c > maxCost {
			maxCost = c
		}
	}
	cold := 0
	for _, c := range w.Cost {
		if c < maxCost*0.25 {
			cold++
		}
	}
	if frac := float64(cold) / float64(len(w.Cost)); frac < 0.5 {
		t.Errorf("SPRNG only %.0f%% cold pixels; expected an underutilised scene", frac*100)
	}
}

func TestInstructionsCounting(t *testing.T) {
	tr := NewTrace([]Op{
		{Kind: OpCompute, Arg: 10},
		{Kind: OpLoad, Arg: 0x1000},
		{Kind: OpTrace, Arg: 0},
		{Kind: OpStore, Arg: 0x2000},
	}, RaySteps{Kind: RayPrimary})
	if got := tr.Instructions(); got != 13 {
		t.Errorf("Instructions = %d, want 13", got)
	}
}

func TestTraversalWork(t *testing.T) {
	tr := NewTrace(nil,
		RaySteps{Kind: RayPrimary, Steps: []uint32{PackStep(1, 0), PackStep(9000, 3)}},
		RaySteps{Kind: RayShadow, Steps: []uint32{PackStep(5, 2)}})
	nodes, tris := tr.TraversalWork()
	if nodes != 3 || tris != 5 {
		t.Errorf("TraversalWork = (%d,%d), want (3,5)", nodes, tris)
	}
}

func TestCachedWorkloadMemoises(t *testing.T) {
	a, err := CachedWorkloadContext(context.Background(), "SHIP", 16, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CachedWorkloadContext(context.Background(), "SHIP", 16, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cache rebuilt an identical workload")
	}
	if _, err := CachedWorkloadContext(context.Background(), "NOPE", 16, 16, 1); err == nil {
		t.Error("unknown scene accepted")
	}
}
