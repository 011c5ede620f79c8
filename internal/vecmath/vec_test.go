package vecmath

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, eps float32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= eps
}

func vecApprox(a, b Vec3, eps float32) bool {
	return approx(a.X, b.X, eps) && approx(a.Y, b.Y, eps) && approx(a.Z, b.Z, eps)
}

func TestVecBasicOps(t *testing.T) {
	a, b := V(1, 2, 3), V(4, 5, 6)
	if got := a.Add(b); got != V(5, 7, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a); got != V(3, 3, 3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != V(2, 4, 6) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 32 {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Neg(); got != V(-1, -2, -3) {
		t.Errorf("Neg = %v", got)
	}
}

func TestCrossOrthogonality(t *testing.T) {
	a, b := V(1, 0, 0), V(0, 1, 0)
	if got := a.Cross(b); got != V(0, 0, 1) {
		t.Errorf("x cross y = %v, want z", got)
	}
	// Cross product is orthogonal to both inputs.
	c := V(1, 2, 3).Cross(V(-2, 1, 0.5))
	if !approx(c.Dot(V(1, 2, 3)), 0, 1e-4) || !approx(c.Dot(V(-2, 1, 0.5)), 0, 1e-4) {
		t.Errorf("cross not orthogonal: %v", c)
	}
}

func TestNorm(t *testing.T) {
	v := V(3, 4, 0).Norm()
	if !approx(v.Len(), 1, 1e-6) {
		t.Errorf("Norm length = %v", v.Len())
	}
	zero := Vec3{}
	if zero.Norm() != zero {
		t.Errorf("Norm of zero changed the vector")
	}
}

func TestMinMaxAxis(t *testing.T) {
	a, b := V(1, 5, 3), V(2, 4, 9)
	if got := a.Min(b); got != V(1, 4, 3) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(b); got != V(2, 5, 9) {
		t.Errorf("Max = %v", got)
	}
	if V(3, 1, 2).MaxAxis() != 0 || V(1, -5, 2).MaxAxis() != 1 || V(1, 2, -3).MaxAxis() != 2 {
		t.Errorf("MaxAxis wrong")
	}
	for i, want := range []float32{7, 8, 9} {
		if got := V(7, 8, 9).Axis(i); got != want {
			t.Errorf("Axis(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestReflect(t *testing.T) {
	// 45° incidence onto the y=0 plane flips the y component.
	in := V(1, -1, 0).Norm()
	out := in.Reflect(V(0, 1, 0))
	if !vecApprox(out, V(1, 1, 0).Norm(), 1e-6) {
		t.Errorf("Reflect = %v", out)
	}
}

func TestReflectPreservesLength(t *testing.T) {
	f := func(vx, vy, vz float32) bool {
		v := V(vx, vy, vz)
		if v.Len() == 0 || v.Len() > 1e10 || math.IsNaN(float64(v.Len())) {
			return true
		}
		out := v.Reflect(V(0, 1, 0))
		return approx(out.Len(), v.Len(), v.Len()*1e-3)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDotCauchySchwarz(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float32) bool {
		a, b := V(ax, ay, az), V(bx, by, bz)
		la, lb := float64(a.Len()), float64(b.Len())
		if math.IsInf(la, 0) || math.IsInf(lb, 0) || math.IsNaN(la) || math.IsNaN(lb) || la > 1e15 || lb > 1e15 {
			return true
		}
		d := math.Abs(float64(a.Dot(b)))
		if math.IsInf(d, 0) {
			return true
		}
		return d <= la*lb*(1+1e-3)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
