package scene

import (
	"reflect"
	"testing"

	"zatel/internal/vecmath"
)

func TestTriangleHitStraightOn(t *testing.T) {
	tri := Triangle{
		V0: vecmath.V(-1, -1, 5),
		V1: vecmath.V(1, -1, 5),
		V2: vecmath.V(0, 1, 5),
	}
	r := vecmath.NewRay(vecmath.V(0, 0, 0), vecmath.V(0, 0, 1))
	d, ok := tri.Hit(r)
	if !ok {
		t.Fatal("ray through triangle center missed")
	}
	if d < 4.99 || d > 5.01 {
		t.Errorf("hit distance %v, want 5", d)
	}
}

func TestTriangleHitMiss(t *testing.T) {
	tri := Triangle{
		V0: vecmath.V(-1, -1, 5),
		V1: vecmath.V(1, -1, 5),
		V2: vecmath.V(0, 1, 5),
	}
	// Outside the triangle but inside its bounding box corner region.
	r := vecmath.NewRay(vecmath.V(0.9, 0.9, 0), vecmath.V(0, 0, 1))
	if _, ok := tri.Hit(r); ok {
		t.Error("corner miss reported as hit")
	}
	// Parallel ray.
	r2 := vecmath.NewRay(vecmath.V(0, 0, 0), vecmath.V(1, 0, 0))
	if _, ok := tri.Hit(r2); ok {
		t.Error("parallel ray reported as hit")
	}
}

func TestTriangleHitRespectsInterval(t *testing.T) {
	tri := Triangle{
		V0: vecmath.V(-1, -1, 5),
		V1: vecmath.V(1, -1, 5),
		V2: vecmath.V(0, 1, 5),
	}
	r := vecmath.NewRay(vecmath.V(0, 0, 0), vecmath.V(0, 0, 1))
	r.TMax = 4
	if _, ok := tri.Hit(r); ok {
		t.Error("hit beyond TMax accepted")
	}
	// Behind the origin.
	r3 := vecmath.NewRay(vecmath.V(0, 0, 10), vecmath.V(0, 0, 1))
	if _, ok := tri.Hit(r3); ok {
		t.Error("hit behind origin accepted")
	}
}

func TestTriangleBoundsContainVertices(t *testing.T) {
	tri := Triangle{V0: vecmath.V(1, 2, 3), V1: vecmath.V(-1, 0, 4), V2: vecmath.V(2, -3, 1)}
	b := tri.Bounds()
	for _, v := range []vecmath.Vec3{tri.V0, tri.V1, tri.V2, tri.Centroid()} {
		if !b.Contains(v) {
			t.Errorf("bounds %v does not contain %v", b, v)
		}
	}
}

func TestTriangleNormalOrthogonal(t *testing.T) {
	tri := Triangle{V0: vecmath.V(0, 0, 0), V1: vecmath.V(1, 0, 0), V2: vecmath.V(0, 1, 0)}
	n := tri.Normal()
	if n != vecmath.V(0, 0, 1) {
		t.Errorf("normal = %v, want +z", n)
	}
}

func TestCameraRayCenterAndCorners(t *testing.T) {
	cam := Camera{
		Eye:    vecmath.V(0, 0, 0),
		LookAt: vecmath.V(0, 0, 1),
		Up:     vecmath.V(0, 1, 0),
		FOVDeg: 90,
	}
	cam.Finalize(1)
	center := cam.Ray(0.5, 0.5)
	if center.Dir.Sub(vecmath.V(0, 0, 1)).Len() > 1e-5 {
		t.Errorf("center ray dir = %v", center.Dir)
	}
	// v=0 is the top of the frame.
	top := cam.Ray(0.5, 0)
	if top.Dir.Y <= 0 {
		t.Errorf("top-row ray points down: %v", top.Dir)
	}
	left := cam.Ray(0, 0.5)
	right := cam.Ray(1, 0.5)
	if left.Dir.X >= 0 || right.Dir.X <= 0 {
		t.Errorf("horizontal rays wrong: left=%v right=%v", left.Dir, right.Dir)
	}
}

func TestValidateCatchesBadScenes(t *testing.T) {
	good, err := Sprng()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Scene)
	}{
		{"empty name", func(s *Scene) { s.Name = "" }},
		{"no tris", func(s *Scene) { s.Tris = nil }},
		{"no mats", func(s *Scene) { s.Mats = nil }},
		{"mat out of range", func(s *Scene) {
			s.Tris = append([]Triangle{}, s.Tris...)
			s.Tris[0].Mat = 99
		}},
		{"negative depth", func(s *Scene) { s.MaxDepth = -1 }},
		{"bad fov", func(s *Scene) { s.Cam.FOVDeg = 0 }},
	}
	for _, tc := range cases {
		s := *good
		tc.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid scene", tc.name)
		}
	}
}

func TestLibraryScenesValid(t *testing.T) {
	for _, name := range Names() {
		s, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if s.Name != name {
			t.Errorf("scene name %q registered under %q", s.Name, name)
		}
		if len(s.Tris) < 100 {
			t.Errorf("%s: only %d triangles, too trivial", name, len(s.Tris))
		}
		if !s.Bounds().Valid() {
			t.Errorf("%s: invalid bounds", name)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("NOPE"); err == nil {
		t.Error("unknown scene did not error")
	}
}

// TestByNameBuildsFresh: ByName keeps no scene. Two calls build deeply
// equal scenes that share no backing array, so a caller that drops its
// scene frees its geometry.
func TestByNameBuildsFresh(t *testing.T) {
	for _, name := range Names() {
		a, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two builds differ", name)
		}
		if a == b || &a.Tris[0] == &b.Tris[0] || &a.Mats[0] == &b.Mats[0] {
			t.Errorf("%s: two builds share a scene or a backing array", name)
		}
	}
}

func TestKnown(t *testing.T) {
	for _, name := range Names() {
		if !Known(name) {
			t.Errorf("Known(%q) = false", name)
		}
	}
	for _, name := range []string{"", "NOPE", "park", "PARK "} {
		if Known(name) {
			t.Errorf("Known(%q) = true", name)
		}
	}
}

// BenchmarkByName builds all eight library scenes per op: the cost every
// workload build pays for its scene.
func BenchmarkByName(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, name := range Names() {
			if _, err := ByName(name); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func TestSceneDeterminism(t *testing.T) {
	a, err := Park()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Park()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Tris) != len(b.Tris) {
		t.Fatalf("triangle counts differ: %d vs %d", len(a.Tris), len(b.Tris))
	}
	for i := range a.Tris {
		if a.Tris[i] != b.Tris[i] {
			t.Fatalf("triangle %d differs between builds", i)
		}
	}
}

func TestRepresentativeSubsetIsSubset(t *testing.T) {
	all := map[string]bool{}
	for _, n := range Names() {
		all[n] = true
	}
	for _, n := range RepresentativeSubset() {
		if !all[n] {
			t.Errorf("representative scene %s not in Names()", n)
		}
	}
}

func TestBuilderQuadWinding(t *testing.T) {
	b := NewBuilder(1)
	m := b.AddMaterial(Material{Kind: Diffuse})
	b.Quad(vecmath.V(0, 0, 0), vecmath.V(1, 0, 0), vecmath.V(1, 1, 0), vecmath.V(0, 1, 0), m)
	s, err := b.Build("q", Camera{FOVDeg: 60, LookAt: vecmath.V(0, 0, 1), Up: vecmath.V(0, 1, 0)}, vecmath.V(0, 5, 0), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Tris) != 2 {
		t.Fatalf("quad produced %d tris", len(s.Tris))
	}
	// Both triangles share the quad plane normal.
	if s.Tris[0].Normal() != s.Tris[1].Normal() {
		t.Errorf("quad halves have different normals: %v vs %v",
			s.Tris[0].Normal(), s.Tris[1].Normal())
	}
}
