package scene

import (
	"math"
	"slices"

	"zatel/internal/vecmath"
)

// Builder accumulates triangles and materials while constructing a
// procedural scene. The zero value is not usable; use NewBuilder.
type Builder struct {
	tris []Triangle
	mats []Material
	rng  *vecmath.RNG
}

// NewBuilder returns a Builder whose stochastic generators draw from a
// stream rooted at seed.
func NewBuilder(seed uint64) *Builder {
	return &Builder{rng: vecmath.NewRNG(seed)}
}

// AddMaterial registers m and returns its index for use in triangles.
func (b *Builder) AddMaterial(m Material) int32 {
	b.mats = append(b.mats, m)
	return int32(len(b.mats) - 1)
}

// grow makes room for n more triangles, so a primitive that knows its
// triangle count appends them without reallocating part-way.
func (b *Builder) grow(n int) { b.tris = slices.Grow(b.tris, n) }

// Tri appends one triangle.
func (b *Builder) Tri(v0, v1, v2 vecmath.Vec3, mat int32) {
	b.tris = append(b.tris, Triangle{V0: v0, V1: v1, V2: v2, Mat: mat})
}

// Quad appends the two triangles of the quad (v0,v1,v2,v3) in winding order.
func (b *Builder) Quad(v0, v1, v2, v3 vecmath.Vec3, mat int32) {
	b.Tri(v0, v1, v2, mat)
	b.Tri(v0, v2, v3, mat)
}

// GroundPlane adds a large horizontal quad at height y spanning
// [-half, half]² in X/Z, tessellated into an n×n grid so the BVH has
// spatially local leaves under the camera.
func (b *Builder) GroundPlane(y, half float32, n int, mat int32) {
	step := 2 * half / float32(n)
	b.grow(2 * n * n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x0 := -half + float32(i)*step
			z0 := -half + float32(j)*step
			b.Quad(
				vecmath.V(x0, y, z0),
				vecmath.V(x0+step, y, z0),
				vecmath.V(x0+step, y, z0+step),
				vecmath.V(x0, y, z0+step),
				mat,
			)
		}
	}
}

// Sphere adds a UV-tessellated sphere with the given number of latitude and
// longitude subdivisions.
func (b *Builder) Sphere(center vecmath.Vec3, radius float32, lat, lon int, mat int32) {
	b.Blob(center, radius, lat, lon, 0, mat)
}

// Blob adds a sphere whose surface is radially perturbed by up to
// bump·radius using deterministic trigonometric noise. bump=0 yields an
// exact sphere; larger values produce the irregular "foliage" and bunny-fur
// silhouettes used by the scene library.
func (b *Builder) Blob(center vecmath.Vec3, radius float32, lat, lon int, bump float32, mat int32) {
	point := func(i, j int) vecmath.Vec3 {
		theta := math.Pi * float64(i) / float64(lat)
		phi := 2 * math.Pi * float64(j) / float64(lon)
		dir := vecmath.V(
			float32(math.Sin(theta)*math.Cos(phi)),
			float32(math.Cos(theta)),
			float32(math.Sin(theta)*math.Sin(phi)),
		)
		r := radius
		if bump != 0 {
			n := math.Sin(5*theta+2*phi) * math.Cos(3*phi-theta)
			r += bump * radius * float32(n)
		}
		return center.Add(dir.Scale(r))
	}
	// Each vertex is evaluated once: rows i and i+1 of the grid are kept
	// in two buffers, and longitude lon wraps to 0.
	row := func(dst []vecmath.Vec3, i int) {
		for j := range dst {
			dst[j] = point(i, j)
		}
	}
	b.grow(2 * lon * max(lat-1, 0))
	cur, next := make([]vecmath.Vec3, lon), make([]vecmath.Vec3, lon)
	row(cur, 0)
	for i := 0; i < lat; i++ {
		row(next, i+1)
		for j := 0; j < lon; j++ {
			j1 := j + 1
			if j1 == lon {
				j1 = 0
			}
			p00, p01 := cur[j], cur[j1]
			p10, p11 := next[j], next[j1]
			if i > 0 {
				b.Tri(p00, p10, p01, mat)
			}
			if i < lat-1 {
				b.Tri(p10, p11, p01, mat)
			}
		}
		cur, next = next, cur
	}
}

// Cluster scatters count random small triangles inside a sphere of the given
// radius — the "foliage" primitive. Each triangle's size is drawn from
// [minSize, maxSize]. High divergence: neighbouring rays entering a cluster
// visit very different BVH subtrees.
func (b *Builder) Cluster(center vecmath.Vec3, radius float32, count int, minSize, maxSize float32, mat int32) {
	b.grow(count)
	for i := 0; i < count; i++ {
		p := center.Add(b.rng.UnitSphere().Scale(radius * b.rng.Float32()))
		size := b.rng.Range(minSize, maxSize)
		e1 := b.rng.UnitSphere().Scale(size)
		e2 := b.rng.UnitSphere().Scale(size)
		b.Tri(p, p.Add(e1), p.Add(e2), mat)
	}
}

// Spikes adds count thin elongated triangles radiating from center — the
// chestnut-burr primitive driving extreme traversal divergence.
func (b *Builder) Spikes(center vecmath.Vec3, radius, length float32, count int, mat int32) {
	b.grow(count)
	for i := 0; i < count; i++ {
		dir := b.rng.UnitSphere()
		base := center.Add(dir.Scale(radius))
		tip := base.Add(dir.Scale(length))
		side := dir.Cross(b.rng.UnitSphere()).Norm().Scale(length * 0.06)
		b.Tri(base.Add(side), base.Sub(side), tip, mat)
	}
}

// Box adds the six faces of an axis-aligned box. If inward is true the
// winding is flipped so normals face the interior (used for enclosed rooms).
func (b *Builder) Box(bb vecmath.AABB, inward bool, mat int32) {
	lo, hi := bb.Lo, bb.Hi
	v := [8]vecmath.Vec3{
		{X: lo.X, Y: lo.Y, Z: lo.Z}, {X: hi.X, Y: lo.Y, Z: lo.Z},
		{X: hi.X, Y: hi.Y, Z: lo.Z}, {X: lo.X, Y: hi.Y, Z: lo.Z},
		{X: lo.X, Y: lo.Y, Z: hi.Z}, {X: hi.X, Y: lo.Y, Z: hi.Z},
		{X: hi.X, Y: hi.Y, Z: hi.Z}, {X: lo.X, Y: hi.Y, Z: hi.Z},
	}
	faces := [6][4]int{
		{0, 1, 2, 3}, // back  (z = lo)
		{5, 4, 7, 6}, // front (z = hi)
		{4, 0, 3, 7}, // left
		{1, 5, 6, 2}, // right
		{3, 2, 6, 7}, // top
		{4, 5, 1, 0}, // bottom
	}
	b.grow(2 * len(faces))
	for _, f := range faces {
		if inward {
			b.Quad(v[f[3]], v[f[2]], v[f[1]], v[f[0]], mat)
		} else {
			b.Quad(v[f[0]], v[f[1]], v[f[2]], v[f[3]], mat)
		}
	}
}

// Columns adds nx×nz vertical boxes (pillars) across the floor area —
// the Sponza-atrium primitive.
func (b *Builder) Columns(area vecmath.AABB, nx, nz int, width, height float32, mat int32) {
	dx := (area.Hi.X - area.Lo.X) / float32(nx+1)
	dz := (area.Hi.Z - area.Lo.Z) / float32(nz+1)
	b.grow(12 * nx * nz)
	for i := 1; i <= nx; i++ {
		for j := 1; j <= nz; j++ {
			cx := area.Lo.X + float32(i)*dx
			cz := area.Lo.Z + float32(j)*dz
			b.Box(vecmath.AABB{
				Lo: vecmath.V(cx-width/2, area.Lo.Y, cz-width/2),
				Hi: vecmath.V(cx+width/2, area.Lo.Y+height, cz+width/2),
			}, false, mat)
		}
	}
}

// Build finalises the scene with the provided name, camera, light and path
// depth, and validates it.
func (b *Builder) Build(name string, cam Camera, light vecmath.Vec3, maxDepth int, seed uint64) (*Scene, error) {
	s := &Scene{
		Name:     name,
		Tris:     b.tris,
		Mats:     b.mats,
		Cam:      cam,
		Light:    light,
		MaxDepth: maxDepth,
		Seed:     seed,
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
