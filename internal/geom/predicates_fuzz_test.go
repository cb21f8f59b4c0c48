package geom

import (
	"math"
	"testing"
)

// FuzzPredicatesExact differentially tests the adaptive expansion tiers
// against the retained big.Rat oracle: for every decoded input the staged
// public predicates and the deep exact tiers must return exactly the
// oracle's sign. The coordinate decoding is biased toward the adversarial
// regimes that defeat the static filter — dyadic lattices (duplicates,
// collinear runs, coplanar sheets, cospherical shells, mirroring the
// internal/delaunay fuzz corpus), decimal lattices (inexact difference
// tails), large offsets (catastrophic cancellation), and one-ulp
// perturbations of lattice points. A sixteenth byte scales all five points
// by 2^±104: every product the predicates form stays a normal float64, but
// the square of InSphere's determinant underflows, or the fifth power of
// its lifts overflows, which is where its stage-1 filter must fall through.

// fuzzCoord maps one byte to a coordinate. All outputs are finite (the
// oracle requires finite input, as do the production call sites, which
// validate with IsFinite before any predicate call).
func fuzzCoord(b byte) float64 {
	q := float64(b & 0x3f)
	switch b >> 6 {
	case 0:
		return q / 16 // dyadic lattice: exact difference tails
	case 1:
		return q / 10 // decimal lattice: inexact tails
	case 2:
		return q/16 + 1e6 // large offset: cancellation in the subtractions
	default:
		// One-ulp perturbation; q+1 keeps the value normal (a perturbed
		// zero would be the smallest subnormal, where twoProduct's FMA
		// tail loses exactness — outside the predicates' documented
		// exponent range, and unreachable from box-normalized catalogs).
		return math.Nextafter((q+1)/16, math.Inf(1))
	}
}

func decodePredFuzzPoints(data []byte) [5]Vec3 {
	var pts [5]Vec3
	coord := func(i int) float64 {
		if i < len(data) {
			return fuzzCoord(data[i])
		}
		return 0
	}
	exp := 0
	if len(data) > 15 {
		exp = [4]int{0, 104, -104, 0}[data[15]&3]
	}
	for i := range pts {
		pts[i] = scaled(Vec3{X: coord(3 * i), Y: coord(3*i + 1), Z: coord(3*i + 2)}, exp)
	}
	return pts
}

func FuzzPredicatesExact(f *testing.F) {
	// Degenerate seeds mirroring the internal/delaunay fuzz corpus: byte
	// value v in [0,63] encodes the dyadic lattice coordinate v/16.
	enc := func(v float64) byte { return byte(v * 16) }
	seed := func(pts ...Vec3) {
		b := make([]byte, 0, 3*len(pts))
		for _, p := range pts {
			b = append(b, enc(p.X), enc(p.Y), enc(p.Z))
		}
		f.Add(b)
	}
	same := Vec3{1, 1, 1}
	seed(same, same, same, same, same) // all duplicates
	seed(Vec3{0, 0, 0}, Vec3{1, 1, 1}, Vec3{2, 2, 2}, Vec3{3, 3, 3}, Vec3{0.5, 0.5, 0.5}) // collinear
	seed(Vec3{0, 0, 2}, Vec3{1, 0, 2}, Vec3{0, 1, 2}, Vec3{1, 1, 2}, Vec3{0.5, 0.5, 2})   // coplanar sheet
	seed(Vec3{0, 0, 0}, Vec3{1, 0, 0}, Vec3{0, 1, 0}, Vec3{1, 1, 0}, Vec3{1, 1, 1})       // cospherical cube corners
	seed(Vec3{0, 0, 0}, Vec3{3, 0, 0}, Vec3{0, 3, 0}, Vec3{0, 0, 3}, Vec3{1, 1, 1})       // tilted plane x+y+z=3
	// Mixed-regime seeds: decimal lattice, offset, and one-ulp bytes.
	f.Add([]byte{0x40, 0x44, 0x48, 0x4c, 0x42, 0x48, 0x44, 0x50, 0x48, 0x46, 0x46, 0x48, 0x80, 0x84, 0x88})
	f.Add([]byte{0x80, 0x00, 0xc0, 0x00, 0x80, 0xc4, 0x84, 0x84, 0xc8, 0x04, 0x44, 0xcc, 0x88, 0x08, 0xc2})
	// A well-conditioned tetrahedron and an inside point, a one-ulp-off
	// cospherical one, and the cube corners, each scaled up (lifts⁵
	// overflows) and down (det² underflows).
	for _, scale := range []byte{1, 2} {
		f.Add([]byte{0x00, 0x00, 0x00, 0x30, 0x00, 0x00, 0x00, 0x30, 0x00, 0x00, 0x00, 0x30, 0x10, 0x10, 0x10, scale})
		f.Add([]byte{0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x10, 0xcf, 0x10, 0x10, scale})
		f.Add([]byte{0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x10, 0x10, 0x10, 0x10, scale})
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodePredFuzzPoints(data)
		a, b, c, d, e := p[0], p[1], p[2], p[3], p[4]
		a2, b2, c2 := Vec2{a.X, a.Y}, Vec2{b.X, b.Y}, Vec2{c.X, c.Y}

		// Staged public path vs oracle.
		prev := SetOracleFallback(true)
		wantO2 := Orient2D(a2, b2, c2)
		wantO3 := Orient3D(a, b, c, d)
		wantIS := InSphere(a, b, c, d, e)
		SetOracleFallback(prev)
		if got := Orient2D(a2, b2, c2); got != wantO2 {
			t.Errorf("Orient2D(%v,%v,%v) = %d, oracle %d", a2, b2, c2, got, wantO2)
		}
		if got := Orient3D(a, b, c, d); got != wantO3 {
			t.Errorf("Orient3D(%v,%v,%v,%v) = %d, oracle %d", a, b, c, d, got, wantO3)
		}
		if got := InSphere(a, b, c, d, e); got != wantIS {
			t.Errorf("InSphere(%v,%v,%v,%v,%v) = %d, oracle %d", a, b, c, d, e, got, wantIS)
		}
		checkInSphereStages(t, a, b, c, d, e)

		// Deep exact tiers directly (valid for arbitrary finite input).
		if got := orient3DExactExp(a, b, c, d); got != orient3DExact(a, b, c, d) {
			t.Errorf("orient3DExactExp(%v,%v,%v,%v) = %d, oracle disagrees", a, b, c, d, got)
		}
		if got := inSphereExactExp(a, b, c, d, e); got != inSphereExact(a, b, c, d, e) {
			t.Errorf("inSphereExactExp(%v,%v,%v,%v,%v) = %d, oracle disagrees", a, b, c, d, e, got)
		}
	})
}
