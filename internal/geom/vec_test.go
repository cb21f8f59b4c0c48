package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVec3Arithmetic(t *testing.T) {
	v := Vec3{1, 2, 3}
	w := Vec3{-4, 5, 0.5}
	if got := v.Add(w); got != (Vec3{-3, 7, 3.5}) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(w); got != (Vec3{5, -3, 2.5}) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Dot(w); got != -4+10+1.5 {
		t.Errorf("Dot = %v", got)
	}
}

func TestCrossOrthogonality(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := Vec3{clampUnit(ax), clampUnit(ay), clampUnit(az)}
		b := Vec3{clampUnit(bx), clampUnit(by), clampUnit(bz)}
		c := a.Cross(b)
		scale := a.Norm() * b.Norm()
		tol := 1e-12 * (scale + 1)
		return almostEq(c.Dot(a), 0, tol) && almostEq(c.Dot(b), 0, tol)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func clampUnit(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0.5
	}
	return math.Mod(x, 1000)
}

func TestCrossHandedness(t *testing.T) {
	ex := Vec3{1, 0, 0}
	ey := Vec3{0, 1, 0}
	ez := Vec3{0, 0, 1}
	if ex.Cross(ey) != ez {
		t.Errorf("ex×ey = %v, want ez", ex.Cross(ey))
	}
	if ey.Cross(ez) != ex {
		t.Errorf("ey×ez = %v, want ex", ey.Cross(ez))
	}
}

func TestAABB(t *testing.T) {
	pts := []Vec3{{0, 1, 2}, {-1, 5, 0}, {3, -2, 2.5}}
	b := BoundsOf(pts)
	if b.Min != (Vec3{-1, -2, 0}) || b.Max != (Vec3{3, 5, 2.5}) {
		t.Fatalf("bounds = %+v", b)
	}
	for _, p := range pts {
		if !b.Contains(p) {
			t.Errorf("box should contain %v", p)
		}
	}
	if b.Contains(Vec3{10, 0, 0}) {
		t.Error("box should not contain far point")
	}
	if c := b.Center(); c != (Vec3{1, 1.5, 1.25}) {
		t.Errorf("center = %v", c)
	}
	if EmptyAABB().Contains(Vec3{}) {
		t.Error("empty box should contain nothing")
	}
	if !EmptyAABB().Empty() {
		t.Error("EmptyAABB should report Empty")
	}
	if b.Empty() {
		t.Error("non-empty box reported empty")
	}
}

func TestAABBUnion(t *testing.T) {
	a := BoundsOf([]Vec3{{0, 0, 0}, {1, 1, 1}})
	b := BoundsOf([]Vec3{{2, -1, 0.5}})
	a.Union(b)
	if a.Min != (Vec3{0, -1, 0}) || a.Max != (Vec3{2, 1, 1}) {
		t.Fatalf("union = %+v", a)
	}
}

func TestSolve3(t *testing.T) {
	// Random well-conditioned systems: solve then verify.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		r0 := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		r1 := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		r2 := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		want := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		rhs := Vec3{r0.Dot(want), r1.Dot(want), r2.Dot(want)}
		got, ok := Solve3(r0, r1, r2, rhs)
		if !ok {
			continue // singular draw; acceptable to skip
		}
		if got.Sub(want).Norm() > 1e-8*(1+want.Norm()) {
			t.Fatalf("trial %d: got %v want %v", trial, got, want)
		}
	}
}

func TestSolve3Singular(t *testing.T) {
	r := Vec3{1, 2, 3}
	if _, ok := Solve3(r, r, Vec3{0, 0, 1}, Vec3{1, 1, 1}); ok {
		t.Error("expected singular system to report !ok")
	}
}

func TestTetVolume(t *testing.T) {
	// Unit tetrahedron has volume 1/6 and positive orientation.
	v := TetVolume(Vec3{}, Vec3{1, 0, 0}, Vec3{0, 1, 0}, Vec3{0, 0, 1})
	if !almostEq(v, 1.0/6.0, 1e-15) {
		t.Errorf("unit tet volume = %v", v)
	}
	// Swapping two vertices flips the sign.
	v2 := TetVolume(Vec3{}, Vec3{0, 1, 0}, Vec3{1, 0, 0}, Vec3{0, 0, 1})
	if !almostEq(v2, -1.0/6.0, 1e-15) {
		t.Errorf("swapped tet volume = %v", v2)
	}
}

func TestTetVolumeTranslationInvariant(t *testing.T) {
	f := func(ox, oy, oz float64) bool {
		o := Vec3{clampUnit(ox), clampUnit(oy), clampUnit(oz)}
		a, b, c, d := Vec3{}, Vec3{1, 0, 0}, Vec3{0, 1, 0}, Vec3{0, 0, 1}
		v := TetVolume(a.Add(o), b.Add(o), c.Add(o), d.Add(o))
		return almostEq(v, 1.0/6.0, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
