package geom

import (
	"math"
	"testing"
)

// Forced-exact benchmark inputs: every case below fails the static filter,
// so each call pays the full exact-arithmetic fallback. The mix covers the
// three ways real catalogs defeat the filter: exactly degenerate with
// exact difference tails (small-integer lattices), exactly or nearly
// degenerate with inexact tails (k/5-style snapped coordinates, where the
// subtractions themselves round), and one-ulp perturbations of a
// degenerate configuration (the adversarial near-zero band).

type o3dCase struct{ a, b, c, d Vec3 }
type isphCase struct{ a, b, c, d, e Vec3 }

func orient3DFallbackCases() []o3dCase {
	tilted := o3dCase{Vec3{12, 0, 0}, Vec3{0, 12, 0}, Vec3{0, 0, 12}, Vec3{4, 4, 4}}
	tiltedNudged := tilted
	tiltedNudged.d.Z = math.Nextafter(tiltedNudged.d.Z, math.Inf(1))
	return []o3dCase{
		// Exactly coplanar, integer coordinates (tails all zero).
		{Vec3{0, 0, 0}, Vec3{3, 0, 0}, Vec3{0, 5, 0}, Vec3{1, 1, 0}},
		// Exactly coplanar after an offset that makes subtraction inexact.
		{Vec3{1e6 + 0.1, 0.3, 0.7}, Vec3{1e6 + 3.3, 0.1, 0.7}, Vec3{1e6 + 0.9, 5.7, 0.7}, Vec3{1e6 + 1.1, 1.3, 0.7}},
		// Coplanar on a k/5 lattice sheet (inexact coordinates).
		{Vec3{0.2, 0.4, 0.6}, Vec3{0.8, 0.2, 0.6}, Vec3{0.4, 1.0, 0.6}, Vec3{0.6, 0.6, 0.6}},
		// Exactly on the tilted plane x+y+z = 12 (integer, tails zero).
		tilted,
		// One ulp above the tilted plane: tiny det, full-size permanent.
		tiltedNudged,
		// Tilted plane at 1/10 scale: inexact coordinates and tails.
		{Vec3{1.2, 0, 0}, Vec3{0, 1.2, 0}, Vec3{0, 0, 1.2}, Vec3{0.4, 0.4, 0.4}},
	}
}

func inSphereFallbackCases() []isphCase {
	// Cube corners are exactly cospherical; scale/offset variants make the
	// coordinate subtractions inexact while keeping (near-)degeneracy.
	cube := func(s, off float64) isphCase {
		return isphCase{
			a: Vec3{off, off, off},
			b: Vec3{off + s, off, off},
			c: Vec3{off, off + s, off},
			d: Vec3{off + s, off + s, off},
			e: Vec3{off + s, off + s, off + s},
		}
	}
	cases := []isphCase{
		cube(1, 0),      // exact tails
		cube(0.2, 0.1),  // inexact coordinates, inexact tails
		cube(3, 1e6),    // large offset: subtraction cancellation
	}
	base := len(cases)
	for i := 0; i < base; i++ {
		c := cases[i]
		c.e.Z = math.Nextafter(c.e.Z, math.Inf(1))
		cases = append(cases, c)
	}
	return cases
}

// BenchmarkPredicateFallbackOrient3D measures the exact-path cost of
// Orient3D on inputs that always miss the static filter.
func BenchmarkPredicateFallbackOrient3D(b *testing.B) {
	cases := orient3DFallbackCases()
	before := ExactCalls.Load()
	for _, c := range cases {
		Orient3D(c.a, c.b, c.c, c.d)
	}
	if got := ExactCalls.Load() - before; got != uint64(len(cases)) {
		b.Fatalf("only %d/%d cases hit the exact path", got, len(cases))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := &cases[i%len(cases)]
		Orient3D(c.a, c.b, c.c, c.d)
	}
}

// BenchmarkPredicateFallbackInSphere measures the exact-path cost of
// InSphere on inputs that always miss the static filter.
func BenchmarkPredicateFallbackInSphere(b *testing.B) {
	cases := inSphereFallbackCases()
	before := ExactCalls.Load()
	for _, c := range cases {
		InSphere(c.a, c.b, c.c, c.d, c.e)
	}
	if got := ExactCalls.Load() - before; got != uint64(len(cases)) {
		b.Fatalf("only %d/%d cases hit the exact path", got, len(cases))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := &cases[i%len(cases)]
		InSphere(c.a, c.b, c.c, c.d, c.e)
	}
}

// BenchmarkPredicateFallbackOrient2D covers Orient2D on collinear and
// one-ulp-off-collinear inputs.
func BenchmarkPredicateFallbackOrient2D(b *testing.B) {
	cases := [][3]Vec2{
		{{0.5, 0.5}, {12, 12}, {24, 24}},
		{{0.5, 0.5}, {12, 12}, {24, math.Nextafter(24, 25)}},
		{{0.2, 0.4}, {0.8, 1.6}, {1.4, 2.8}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := &cases[i%len(cases)]
		Orient2D(c[0], c[1], c[2])
	}
}
