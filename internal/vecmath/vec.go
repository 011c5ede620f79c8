// Package vecmath provides the small linear-algebra kernel used by the
// ray-tracing substrate: 3-component float32 vectors, rays, axis-aligned
// bounding boxes and a splittable deterministic PRNG.
//
// Everything in this package is allocation-free and safe for concurrent use
// by value.
package vecmath

import "math"

// Vec3 is a 3-component single-precision vector. Single precision matches
// what GPU ray-tracing hardware operates on and halves trace memory.
type Vec3 struct {
	X, Y, Z float32
}

// V is shorthand for constructing a Vec3.
func V(x, y, z float32) Vec3 { return Vec3{x, y, z} }

// Add returns v + u.
func (v Vec3) Add(u Vec3) Vec3 { return Vec3{v.X + u.X, v.Y + u.Y, v.Z + u.Z} }

// Sub returns v - u.
func (v Vec3) Sub(u Vec3) Vec3 { return Vec3{v.X - u.X, v.Y - u.Y, v.Z - u.Z} }

// Scale returns s·v.
func (v Vec3) Scale(s float32) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the inner product v·u.
func (v Vec3) Dot(u Vec3) float32 { return v.X*u.X + v.Y*u.Y + v.Z*u.Z }

// Cross returns the cross product v × u.
func (v Vec3) Cross(u Vec3) Vec3 {
	return Vec3{
		v.Y*u.Z - v.Z*u.Y,
		v.Z*u.X - v.X*u.Z,
		v.X*u.Y - v.Y*u.X,
	}
}

// Len returns the Euclidean norm of v.
func (v Vec3) Len() float32 {
	return float32(math.Sqrt(float64(v.Dot(v))))
}

// Norm returns v scaled to unit length. The zero vector is returned
// unchanged.
func (v Vec3) Norm() Vec3 {
	l := v.Len()
	if l == 0 {
		return v
	}
	return v.Scale(1 / l)
}

// Neg returns -v.
func (v Vec3) Neg() Vec3 { return Vec3{-v.X, -v.Y, -v.Z} }

// Min returns the component-wise minimum of v and u.
func (v Vec3) Min(u Vec3) Vec3 {
	return Vec3{min(v.X, u.X), min(v.Y, u.Y), min(v.Z, u.Z)}
}

// Max returns the component-wise maximum of v and u.
func (v Vec3) Max(u Vec3) Vec3 {
	return Vec3{max(v.X, u.X), max(v.Y, u.Y), max(v.Z, u.Z)}
}

// Axis returns the i-th component (0=X, 1=Y, 2=Z).
func (v Vec3) Axis(i int) float32 {
	switch i {
	case 0:
		return v.X
	case 1:
		return v.Y
	default:
		return v.Z
	}
}

// MaxAxis returns the index of the component with the largest magnitude.
func (v Vec3) MaxAxis() int {
	ax, ay, az := abs(v.X), abs(v.Y), abs(v.Z)
	switch {
	case ax >= ay && ax >= az:
		return 0
	case ay >= az:
		return 1
	default:
		return 2
	}
}

// Reflect returns the reflection of the incident direction v about the
// (unit) normal n: v − 2(v·n)n.
func (v Vec3) Reflect(n Vec3) Vec3 {
	return v.Sub(n.Scale(2 * v.Dot(n)))
}

func abs(x float32) float32 {
	if x < 0 {
		return -x
	}
	return x
}
