package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestOrient2DBasics(t *testing.T) {
	a, b := Vec2{0, 0}, Vec2{1, 0}
	if Orient2D(a, b, Vec2{0, 1}) != 1 {
		t.Error("left point should be +1")
	}
	if Orient2D(a, b, Vec2{0, -1}) != -1 {
		t.Error("right point should be -1")
	}
	if Orient2D(a, b, Vec2{2, 0}) != 0 {
		t.Error("collinear point should be 0")
	}
}

func TestOrient2DExactDegenerate(t *testing.T) {
	// Points that defeat naive floating point: tiny offsets from a line.
	a := Vec2{0.5, 0.5}
	b := Vec2{12, 12}
	y := 24.0
	for i := 0; i < 32; i++ {
		c := Vec2{24, y}
		want := 0
		if i > 0 {
			want = 1 // nudged above the line by i ulps
		}
		if got := Orient2D(a, b, c); got != want {
			t.Fatalf("i=%d y=%v: got %d want %d", i, y, got, want)
		}
		y = math.Nextafter(y, 25)
	}
}

func TestOrient3DBasics(t *testing.T) {
	a, b, c := Vec3{0, 0, 0}, Vec3{1, 0, 0}, Vec3{0, 1, 0}
	if Orient3D(a, b, c, Vec3{0, 0, 1}) != 1 {
		t.Error("above point should be +1 (unit tet positively oriented)")
	}
	if Orient3D(a, b, c, Vec3{0, 0, -1}) != -1 {
		t.Error("below point should be -1")
	}
	if Orient3D(a, b, c, Vec3{0.3, 0.3, 0}) != 0 {
		t.Error("coplanar point should be 0")
	}
}

func TestOrient3DMatchesVolumeSign(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		a := randVec3(rng)
		b := randVec3(rng)
		c := randVec3(rng)
		d := randVec3(rng)
		v := TetVolume(a, b, c, d)
		o := Orient3D(a, b, c, d)
		if v > 1e-9 && o != 1 {
			t.Fatalf("volume %g but orient %d", v, o)
		}
		if v < -1e-9 && o != -1 {
			t.Fatalf("volume %g but orient %d", v, o)
		}
	}
}

func TestOrient3DExactDegenerate(t *testing.T) {
	// Nearly coplanar quadruples resolved exactly.
	a, b, c := Vec3{0, 0, 0}, Vec3{1e6, 0, 0}, Vec3{0, 1e6, 0}
	if got := Orient3D(a, b, c, Vec3{123.456, 789.01, 0}); got != 0 {
		t.Errorf("exactly coplanar: got %d", got)
	}
	if got := Orient3D(a, b, c, Vec3{123.456, 789.01, 1e-30}); got != 1 {
		t.Errorf("barely above: got %d", got)
	}
	if got := Orient3D(a, b, c, Vec3{123.456, 789.01, -1e-30}); got != -1 {
		t.Errorf("barely below: got %d", got)
	}
}

func TestInSphereBasics(t *testing.T) {
	a, b, c, d := Vec3{0, 0, 0}, Vec3{1, 0, 0}, Vec3{0, 1, 0}, Vec3{0, 0, 1}
	if Orient3D(a, b, c, d) != 1 {
		t.Fatal("test tet must be positively oriented")
	}
	if got := InSphere(a, b, c, d, Vec3{0.5, 0.5, 0.5}); got != 1 {
		t.Errorf("circumcenter should be inside: %d", got)
	}
	if got := InSphere(a, b, c, d, Vec3{5, 5, 5}); got != -1 {
		t.Errorf("far point should be outside: %d", got)
	}
	// The vertices themselves lie exactly on the sphere.
	for _, p := range []Vec3{a, b, c, d} {
		if got := InSphere(a, b, c, d, p); got != 0 {
			t.Errorf("vertex %v should be on sphere: %d", p, got)
		}
	}
}

func TestInSphereAgainstGeometry(t *testing.T) {
	// Compare the predicate against an explicit circumsphere computation
	// on random, well-separated cases.
	rng := rand.New(rand.NewSource(11))
	checked := 0
	for checked < 300 {
		a, b, c, d := randVec3(rng), randVec3(rng), randVec3(rng), randVec3(rng)
		if Orient3D(a, b, c, d) <= 0 {
			a, b = b, a
		}
		if Orient3D(a, b, c, d) <= 0 {
			continue
		}
		center, r2, ok := circumsphere(a, b, c, d)
		if !ok {
			continue
		}
		e := randVec3(rng)
		dist2 := e.Sub(center).Norm2()
		margin := 1e-6 * r2
		if dist2 > r2+margin {
			if got := InSphere(a, b, c, d, e); got != -1 {
				t.Fatalf("outside point classified %d", got)
			}
			checked++
		} else if dist2 < r2-margin {
			if got := InSphere(a, b, c, d, e); got != 1 {
				t.Fatalf("inside point classified %d", got)
			}
			checked++
		}
	}
}

// circumsphere returns the circumcenter and squared radius of tet (a,b,c,d).
func circumsphere(a, b, c, d Vec3) (Vec3, float64, bool) {
	// Solve 2*(b-a)·x = |b|^2-|a|^2 etc.
	r0 := b.Sub(a).Scale(2)
	r1 := c.Sub(a).Scale(2)
	r2 := d.Sub(a).Scale(2)
	rhs := Vec3{
		b.Norm2() - a.Norm2(),
		c.Norm2() - a.Norm2(),
		d.Norm2() - a.Norm2(),
	}
	x, ok := Solve3(r0, r1, r2, rhs)
	if !ok {
		return Vec3{}, 0, false
	}
	return x, x.Sub(a).Norm2(), true
}

func TestCoSphericalExactness(t *testing.T) {
	// Eight corners of a cube are cospherical; every insphere test among
	// them must return exactly 0 for the 5th corner.
	cube := []Vec3{
		{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1},
		{1, 1, 0}, {1, 0, 1}, {0, 1, 1}, {1, 1, 1},
	}
	a, b, c, d := cube[0], cube[1], cube[2], cube[4]
	if Orient3D(a, b, c, d) == 0 {
		t.Skip("degenerate base tet")
	}
	if Orient3D(a, b, c, d) < 0 {
		a, b = b, a
	}
	for _, e := range cube[5:] {
		if got := InSphere(a, b, c, d, e); got != 0 {
			t.Errorf("cube corner %v should be exactly on sphere, got %d", e, got)
		}
	}
}

func randVec3(rng *rand.Rand) Vec3 {
	return Vec3{rng.Float64()*10 - 5, rng.Float64()*10 - 5, rng.Float64()*10 - 5}
}

func TestExactFallbackCounter(t *testing.T) {
	before := ExactCalls.Load()
	// Exactly coplanar points must hit the exact path.
	Orient3D(Vec3{0, 0, 0}, Vec3{1, 0, 0}, Vec3{0, 1, 0}, Vec3{0.25, 0.25, 0})
	if ExactCalls.Load() == before {
		t.Error("degenerate orient3d should use exact fallback")
	}
}

func BenchmarkOrient3DFast(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]Vec3, 400)
	for i := range pts {
		pts[i] = randVec3(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % 100
		Orient3D(pts[j], pts[j+100], pts[j+200], pts[j+300])
	}
}

func BenchmarkInSphereFast(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pts := make([]Vec3, 500)
	for i := range pts {
		pts[i] = randVec3(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % 100
		InSphere(pts[j], pts[j+100], pts[j+200], pts[j+300], pts[j+400])
	}
}
