package scene

import (
	"fmt"
	"sort"

	"zatel/internal/vecmath"
)

// The scene library reproduces the *workload characterisation* of each
// LumiBench scene used in the Zatel evaluation (the assets themselves are
// not redistributable). The property each scene must exhibit — its heatmap
// temperature profile and how well it saturates a GPU — is documented on
// its constructor and asserted by the heat-contrast tests in internal/rt and internal/heatmap.

// Names returns the scene names in the canonical order used by the paper's
// figures.
func Names() []string {
	return []string{"PARK", "SHIP", "WKND", "BUNNY", "SPRNG", "CHSNT", "SPNZA", "BATH"}
}

// RepresentativeSubset returns the LumiBench representative subset used for
// Fig. 17: the scenes that adequately stress a downscaled GPU.
func RepresentativeSubset() []string {
	return []string{"PARK", "BUNNY", "SPNZA", "BATH"}
}

var registry = map[string]func() (*Scene, error){
	"PARK":  Park,
	"SHIP":  Ship,
	"WKND":  Wknd,
	"BUNNY": Bunny,
	"SPRNG": Sprng,
	"CHSNT": Chsnt,
	"SPNZA": Spnza,
	"BATH":  Bath,
}

// Known reports whether name is a scene-library name. It builds nothing.
func Known(name string) bool {
	_, ok := registry[name]
	return ok
}

// ByName builds the named scene. Every call builds afresh and nothing in
// the process keeps the geometry: a caller holds the scene only as long as
// it needs it (rt.BuildWorkload, for the length of one trace).
func ByName(name string) (*Scene, error) {
	ctor, ok := registry[name]
	if !ok {
		known := make([]string, 0, len(registry))
		for k := range registry {
			known = append(known, k)
		}
		sort.Strings(known)
		return nil, fmt.Errorf("scene: unknown name %q (known: %v)", name, known)
	}
	return ctor()
}

// Park is the hardest path-tracing workload: a foliage field over diffuse
// ground with a mirror pond, depth-3 paths. It saturates the GPU across
// nearly the whole frame (uniformly warm heatmap).
func Park() (*Scene, error) {
	b := NewBuilder(0x9a11)
	ground := b.AddMaterial(Material{Kind: Diffuse, Albedo: vecmath.V(0.35, 0.45, 0.25), BounceProb: 0.8})
	leaf := b.AddMaterial(Material{Kind: Diffuse, Albedo: vecmath.V(0.2, 0.6, 0.2), BounceProb: 0.9})
	trunk := b.AddMaterial(Material{Kind: Diffuse, Albedo: vecmath.V(0.4, 0.3, 0.2), BounceProb: 0.6})
	pond := b.AddMaterial(Material{Kind: Mirror, Albedo: vecmath.V(0.8, 0.85, 0.9)})

	b.GroundPlane(0, 30, 12, ground)
	// Mirror pond in the middle distance.
	b.Quad(
		vecmath.V(-8, 0.02, 4), vecmath.V(8, 0.02, 4),
		vecmath.V(8, 0.02, 14), vecmath.V(-8, 0.02, 14), pond)

	rng := vecmath.NewRNG(0x9a12)
	for i := 0; i < 48; i++ {
		x := rng.Range(-24, 24)
		z := rng.Range(-6, 26)
		h := rng.Range(2.5, 5)
		// Trunk.
		b.Box(vecmath.AABB{
			Lo: vecmath.V(x-0.15, 0, z-0.15),
			Hi: vecmath.V(x+0.15, h, z+0.15),
		}, false, trunk)
		// Canopy of scattered leaves.
		b.Cluster(vecmath.V(x, h+1.0, z), 1.6, 760, 0.2, 0.5, leaf)
	}

	cam := Camera{
		Eye:    vecmath.V(0, 3.0, -12),
		LookAt: vecmath.V(0, 2.2, 8),
		Up:     vecmath.V(0, 1, 0),
		FOVDeg: 58,
	}
	return b.Build("PARK", cam, vecmath.V(12, 25, -10), 3, 0x9a13)
}

// Ship has the coldest heatmap: a single detailed hull low in the frame with
// empty sky elsewhere, so most primary rays terminate at the BVH root.
func Ship() (*Scene, error) {
	b := NewBuilder(0x51b1)
	hull := b.AddMaterial(Material{Kind: Diffuse, Albedo: vecmath.V(0.45, 0.35, 0.3), BounceProb: 0.5})
	sail := b.AddMaterial(Material{Kind: Diffuse, Albedo: vecmath.V(0.9, 0.9, 0.85), BounceProb: 0.3})

	// Hull: an elongated perturbed blob.
	b.Blob(vecmath.V(0, -2.2, 10), 2.0, 40, 80, 0.25, hull)
	// Masts and sails as thin boxes/quads above the hull.
	for i := -1; i <= 1; i++ {
		x := float32(i) * 1.3
		b.Box(vecmath.AABB{
			Lo: vecmath.V(x-0.05, -1.2, 9.9),
			Hi: vecmath.V(x+0.05, 2.2, 10.1),
		}, false, hull)
		b.Quad(
			vecmath.V(x-0.9, 2.0, 10), vecmath.V(x+0.9, 2.0, 10),
			vecmath.V(x+0.9, 0.2, 10), vecmath.V(x-0.9, 0.2, 10), sail)
	}

	cam := Camera{
		Eye:    vecmath.V(0, 0.5, -6),
		LookAt: vecmath.V(0, -0.8, 10),
		Up:     vecmath.V(0, 1, 0),
		FOVDeg: 62,
	}
	return b.Build("SHIP", cam, vecmath.V(15, 20, -5), 2, 0x51b2)
}

// Wknd mixes warm and cold: the left half of the frame sees a cluttered
// interior while the right half sees open sky.
func Wknd() (*Scene, error) {
	b := NewBuilder(0x3e6d)
	wall := b.AddMaterial(Material{Kind: Diffuse, Albedo: vecmath.V(0.7, 0.65, 0.6), BounceProb: 0.7})
	wood := b.AddMaterial(Material{Kind: Diffuse, Albedo: vecmath.V(0.5, 0.35, 0.2), BounceProb: 0.7})
	metal := b.AddMaterial(Material{Kind: Mirror, Albedo: vecmath.V(0.85, 0.85, 0.85)})

	// Interior occupying x < 0: floor, back wall, side wall.
	b.Quad(vecmath.V(-14, -2, 0), vecmath.V(0.5, -2, 0),
		vecmath.V(0.5, -2, 18), vecmath.V(-14, -2, 18), wall)
	b.Quad(vecmath.V(-14, -2, 16), vecmath.V(0.5, -2, 16),
		vecmath.V(0.5, 8, 16), vecmath.V(-14, 8, 16), wall)
	b.Quad(vecmath.V(-14, -2, 0), vecmath.V(-14, -2, 18),
		vecmath.V(-14, 8, 18), vecmath.V(-14, 8, 0), wall)

	// Furniture: boxes and cluttered clusters on the interior side.
	rng := vecmath.NewRNG(0x3e6e)
	for i := 0; i < 10; i++ {
		x := rng.Range(-12, -1)
		z := rng.Range(4, 14)
		w := rng.Range(0.6, 1.6)
		h := rng.Range(0.8, 3.0)
		mat := wood
		if i%3 == 0 {
			mat = metal
		}
		b.Box(vecmath.AABB{
			Lo: vecmath.V(x-w/2, -2, z-w/2),
			Hi: vecmath.V(x+w/2, -2+h, z+w/2),
		}, false, mat)
	}
	for i := 0; i < 6; i++ {
		b.Cluster(vecmath.V(rng.Range(-12, -2), rng.Range(0, 3), rng.Range(5, 13)),
			1.0, 1400, 0.1, 0.3, wood)
	}

	cam := Camera{
		Eye:    vecmath.V(3, 1, -4),
		LookAt: vecmath.V(-2, 0.5, 10),
		Up:     vecmath.V(0, 1, 0),
		FOVDeg: 65,
	}
	return b.Build("WKND", cam, vecmath.V(8, 14, -6), 2, 0x3e6f)
}

// Bunny has the warmest heatmap: a finely tessellated perturbed blob filling
// the view, so every primary ray traverses deep into a dense BVH.
func Bunny() (*Scene, error) {
	b := NewBuilder(0xb077)
	fur := b.AddMaterial(Material{Kind: Diffuse, Albedo: vecmath.V(0.75, 0.7, 0.65), BounceProb: 0.85})
	base := b.AddMaterial(Material{Kind: Diffuse, Albedo: vecmath.V(0.3, 0.3, 0.35), BounceProb: 0.6})

	// Body and head: high-resolution bumpy blobs that cover the frame.
	b.Blob(vecmath.V(0, 0, 6), 3.2, 104, 208, 0.18, fur)
	b.Blob(vecmath.V(0.8, 3.0, 5.4), 1.5, 56, 112, 0.22, fur)
	// Ears.
	b.Blob(vecmath.V(0.2, 4.8, 5.4), 0.6, 16, 24, 0.3, fur)
	b.Blob(vecmath.V(1.6, 4.8, 5.4), 0.6, 16, 24, 0.3, fur)
	// Pedestal right behind, catching the frame edges.
	b.Box(vecmath.AABB{
		Lo: vecmath.V(-6, -4.4, 3),
		Hi: vecmath.V(6, -2.9, 9),
	}, false, base)

	cam := Camera{
		Eye:    vecmath.V(0, 0.8, -1.2),
		LookAt: vecmath.V(0.2, 1.0, 6),
		Up:     vecmath.V(0, 1, 0),
		FOVDeg: 70,
	}
	return b.Build("BUNNY", cam, vecmath.V(6, 10, -8), 2, 0xb078)
}

// Sprng contains only two objects; most rays terminate at the root and the
// GPU is underutilised — the paper's linear-extrapolation outlier.
func Sprng() (*Scene, error) {
	b := NewBuilder(0x5916)
	m1 := b.AddMaterial(Material{Kind: Diffuse, Albedo: vecmath.V(0.8, 0.3, 0.3), BounceProb: 0.5})
	m2 := b.AddMaterial(Material{Kind: Mirror, Albedo: vecmath.V(0.7, 0.8, 0.7)})

	b.Sphere(vecmath.V(-2.2, 0, 9), 1.6, 20, 40, m1)
	b.Sphere(vecmath.V(2.6, 0.5, 12), 2.0, 20, 40, m2)

	cam := Camera{
		Eye:    vecmath.V(0, 0, -4),
		LookAt: vecmath.V(0, 0, 10),
		Up:     vecmath.V(0, 1, 0),
		FOVDeg: 60,
	}
	return b.Build("SPRNG", cam, vecmath.V(10, 12, -6), 2, 0x5917)
}

// Chsnt scatters spiky chestnut burrs across the frame, driving extreme
// per-warp traversal divergence.
func Chsnt() (*Scene, error) {
	b := NewBuilder(0xc45e)
	burr := b.AddMaterial(Material{Kind: Diffuse, Albedo: vecmath.V(0.55, 0.4, 0.2), BounceProb: 0.8})
	core := b.AddMaterial(Material{Kind: Diffuse, Albedo: vecmath.V(0.35, 0.2, 0.1), BounceProb: 0.6})
	ground := b.AddMaterial(Material{Kind: Diffuse, Albedo: vecmath.V(0.4, 0.35, 0.3), BounceProb: 0.7})

	b.GroundPlane(-3, 20, 8, ground)
	rng := vecmath.NewRNG(0xc45f)
	for i := 0; i < 20; i++ {
		c := vecmath.V(rng.Range(-8, 8), rng.Range(-1.5, 3), rng.Range(5, 16))
		r := rng.Range(0.5, 1.1)
		b.Sphere(c, r*0.8, 14, 28, core)
		b.Spikes(c, r*0.8, r*0.9, 850, burr)
	}

	cam := Camera{
		Eye:    vecmath.V(0, 1, -4),
		LookAt: vecmath.V(0, 0.5, 10),
		Up:     vecmath.V(0, 1, 0),
		FOVDeg: 62,
	}
	return b.Build("CHSNT", cam, vecmath.V(8, 16, -4), 2, 0xc460)
}

// Spnza is the enclosed atrium: every primary ray hits geometry, producing a
// uniform heatmap and the lowest prediction error at small sample fractions.
func Spnza() (*Scene, error) {
	b := NewBuilder(0x59a2)
	stone := b.AddMaterial(Material{Kind: Diffuse, Albedo: vecmath.V(0.6, 0.55, 0.5), BounceProb: 0.75})
	drape := b.AddMaterial(Material{Kind: Diffuse, Albedo: vecmath.V(0.6, 0.2, 0.2), BounceProb: 0.75})

	room := vecmath.AABB{Lo: vecmath.V(-10, -3, -2), Hi: vecmath.V(10, 9, 22)}
	b.Box(room, true, stone)
	b.Columns(vecmath.AABB{Lo: vecmath.V(-8, -3, 2), Hi: vecmath.V(8, -3, 18)}, 4, 3, 0.9, 8, stone)
	// Hanging drapes between columns.
	rng := vecmath.NewRNG(0x59a3)
	for i := 0; i < 6; i++ {
		x := rng.Range(-7, 7)
		z := rng.Range(4, 16)
		b.Quad(
			vecmath.V(x-1.2, 6.5, z), vecmath.V(x+1.2, 6.5, z),
			vecmath.V(x+1.0, 2.0, z+0.4), vecmath.V(x-1.0, 2.0, z+0.4), drape)
	}

	for i := 0; i < 12; i++ {
		b.Cluster(vecmath.V(rng.Range(-8, 8), rng.Range(-2, 7), rng.Range(2, 20)),
			0.9, 900, 0.05, 0.2, stone)
	}

	cam := Camera{
		Eye:    vecmath.V(0, 1.2, 0),
		LookAt: vecmath.V(0.5, 1.5, 20),
		Up:     vecmath.V(0, 1, 0),
		FOVDeg: 68,
	}
	return b.Build("SPNZA", cam, vecmath.V(0, 8, 10), 2, 0x59a4)
}

// Bath is the longest-running workload: an enclosed mirrored room with dense
// geometry and depth-4 paths, giving maximal GPU saturation.
func Bath() (*Scene, error) {
	b := NewBuilder(0xba78)
	tile := b.AddMaterial(Material{Kind: Diffuse, Albedo: vecmath.V(0.75, 0.8, 0.85), BounceProb: 0.85})
	mirror := b.AddMaterial(Material{Kind: Mirror, Albedo: vecmath.V(0.88, 0.9, 0.92)})
	brass := b.AddMaterial(Material{Kind: Mirror, Albedo: vecmath.V(0.8, 0.7, 0.4)})

	room := vecmath.AABB{Lo: vecmath.V(-7, -3, -2), Hi: vecmath.V(7, 6, 16)}
	b.Box(room, true, tile)
	// Mirror panels on the side walls and back wall.
	b.Quad(vecmath.V(-6.99, -1, 2), vecmath.V(-6.99, -1, 12),
		vecmath.V(-6.99, 4, 12), vecmath.V(-6.99, 4, 2), mirror)
	b.Quad(vecmath.V(6.99, -1, 12), vecmath.V(6.99, -1, 2),
		vecmath.V(6.99, 4, 2), vecmath.V(6.99, 4, 12), mirror)
	b.Quad(vecmath.V(-5, -1, 15.99), vecmath.V(5, -1, 15.99),
		vecmath.V(5, 4.5, 15.99), vecmath.V(-5, 4.5, 15.99), mirror)

	// Tub: a reflective elongated blob; fittings: dense brass clusters.
	b.Blob(vecmath.V(0, -2.0, 9), 2.4, 44, 88, 0.12, brass)
	rng := vecmath.NewRNG(0xba79)
	for i := 0; i < 16; i++ {
		b.Cluster(vecmath.V(rng.Range(-5, 5), rng.Range(-1, 3), rng.Range(4, 14)),
			0.8, 900, 0.08, 0.28, brass)
	}

	cam := Camera{
		Eye:    vecmath.V(0, 1.0, -1),
		LookAt: vecmath.V(0, 0.5, 12),
		Up:     vecmath.V(0, 1, 0),
		FOVDeg: 66,
	}
	return b.Build("BATH", cam, vecmath.V(0, 5, 6), 4, 0xba7a)
}
