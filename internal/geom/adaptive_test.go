package geom

import (
	"math"
	"math/rand"
	"testing"
)

// Differential tests: the adaptive expansion tiers must agree with the
// retained big.Rat oracle on every input. The deep exact tiers are tested
// directly (they are valid for arbitrary finite input, filter or not);
// the staged public predicates are tested on degenerate-biased catalogs
// that defeat the static filter.

// adversarialVec3 draws coordinates designed to stress the exact paths:
// dyadic lattices (exact tails), decimal lattices (inexact tails), large
// offsets (catastrophic cancellation), and one-ulp perturbations.
func adversarialVec3(rng *rand.Rand) Vec3 {
	coord := func() float64 {
		q := float64(rng.Intn(64))
		switch rng.Intn(4) {
		case 0:
			return q / 16
		case 1:
			return q / 10
		case 2:
			return q/16 + 1e6
		default:
			// q+1 keeps the perturbed value normal; see fuzzCoord.
			return math.Nextafter((q+1)/16, math.Inf(1))
		}
	}
	return Vec3{X: coord(), Y: coord(), Z: coord()}
}

func TestOrient2DAdaptMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		p := adversarialVec3(rng)
		q := adversarialVec3(rng)
		r := adversarialVec3(rng)
		a, b, c := Vec2{p.X, p.Y}, Vec2{q.X, q.Y}, Vec2{r.X, r.Y}
		detL := (a.X - c.X) * (b.Y - c.Y)
		detR := (a.Y - c.Y) * (b.X - c.X)
		sum := math.Abs(detL) + math.Abs(detR)
		got := orient2DAdapt(a, b, c, sum)
		want := orient2DExact(a, b, c)
		if got != want {
			t.Fatalf("orient2DAdapt(%v,%v,%v) = %d, oracle %d", a, b, c, got, want)
		}
	}
}

func TestOrient3DExactExpMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		a, b, c, d := adversarialVec3(rng), adversarialVec3(rng), adversarialVec3(rng), adversarialVec3(rng)
		got := orient3DExactExp(a, b, c, d)
		want := orient3DExact(a, b, c, d)
		if got != want {
			t.Fatalf("orient3DExactExp(%v,%v,%v,%v) = %d, oracle %d", a, b, c, d, got, want)
		}
	}
}

func TestInSphereExactExpMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10000; i++ {
		a, b, c, d, e := adversarialVec3(rng), adversarialVec3(rng), adversarialVec3(rng), adversarialVec3(rng), adversarialVec3(rng)
		got := inSphereExactExp(a, b, c, d, e)
		want := inSphereExact(a, b, c, d, e)
		if got != want {
			t.Fatalf("inSphereExactExp(%v,%v,%v,%v,%v) = %d, oracle %d", a, b, c, d, e, got, want)
		}
	}
}

// TestPublicPredicatesMatchOracle drives the full staged path (filter →
// A → C → exact) against the oracle on degenerate-biased inputs.
func TestPublicPredicatesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10000; i++ {
		a, b, c, d, e := adversarialVec3(rng), adversarialVec3(rng), adversarialVec3(rng), adversarialVec3(rng), adversarialVec3(rng)
		prev := SetOracleFallback(true)
		wantO3 := Orient3D(a, b, c, d)
		wantIS := InSphere(a, b, c, d, e)
		wantO2 := Orient2D(Vec2{a.X, a.Y}, Vec2{b.X, b.Y}, Vec2{c.X, c.Y})
		SetOracleFallback(prev)
		if got := Orient3D(a, b, c, d); got != wantO3 {
			t.Fatalf("Orient3D(%v,%v,%v,%v) = %d, oracle %d", a, b, c, d, got, wantO3)
		}
		if got := InSphere(a, b, c, d, e); got != wantIS {
			t.Fatalf("InSphere(%v,%v,%v,%v,%v) = %d, oracle %d", a, b, c, d, e, got, wantIS)
		}
		if got := Orient2D(Vec2{a.X, a.Y}, Vec2{b.X, b.Y}, Vec2{c.X, c.Y}); got != wantO2 {
			t.Fatalf("Orient2D mismatch: %d vs oracle %d", got, wantO2)
		}
	}
}

// TestExactPredicatesZeroAlloc pins the tentpole acceptance criterion:
// even fully degenerate inputs that reach the deepest exact tier must not
// allocate.
func TestExactPredicatesZeroAlloc(t *testing.T) {
	o3 := orient3DFallbackCases()
	isp := inSphereFallbackCases()
	if n := testing.AllocsPerRun(100, func() {
		for _, c := range o3 {
			Orient3D(c.a, c.b, c.c, c.d)
		}
		for _, c := range isp {
			InSphere(c.a, c.b, c.c, c.d, c.e)
		}
	}); n != 0 {
		t.Fatalf("staged predicates allocated %v times per run", n)
	}
	// Force the deepest tier directly.
	if n := testing.AllocsPerRun(100, func() {
		orient3DExactExp(Vec3{0, 0, 0}, Vec3{3, 0, 0}, Vec3{0, 5, 0}, Vec3{1, 1, 0})
		inSphereExactExp(Vec3{0, 0, 0}, Vec3{1, 0, 0}, Vec3{0, 1, 0}, Vec3{1, 1, 0}, Vec3{1, 1, 1})
	}); n != 0 {
		t.Fatalf("deep exact tiers allocated %v times per run", n)
	}
}

// TestAdaptiveTiersResolveEarly checks the tier routing: exactly
// degenerate dyadic input short-circuits on the zero-tails path without
// reaching the deep exact tier, while decimal-lattice degeneracies (with
// inexact tails) do reach it — and both get the right answer.
func TestAdaptiveTiersResolveEarly(t *testing.T) {
	before := DeepExactCalls.Load()
	if got := Orient3D(Vec3{0, 0, 0}, Vec3{3, 0, 0}, Vec3{0, 5, 0}, Vec3{1, 1, 0}); got != 0 {
		t.Fatalf("coplanar integer Orient3D = %d, want 0", got)
	}
	if d := DeepExactCalls.Load() - before; d != 0 {
		t.Fatalf("integer-coordinate degeneracy took the deep tier (%d calls)", d)
	}
	// Points on the plane z = x (z stored as the identical float) with
	// mixed-magnitude coordinates: the subtractions are inexact (no
	// Sterbenz exactness across 7 decades) yet the true determinant is
	// exactly zero, so neither stage A nor the stage C correction can
	// certify and the call must reach the deep tier.
	before = DeepExactCalls.Load()
	if got := Orient3D(
		Vec3{1e6, 7, 1e6}, Vec3{3, 1e6, 3},
		Vec3{123, 456, 123}, Vec3{0.1, 0.2, 0.1}); got != 0 {
		t.Fatalf("z=x coplanar Orient3D = %d, want 0", got)
	}
	if d := DeepExactCalls.Load() - before; d == 0 {
		t.Fatal("z=x coplanar exact zero should require the deep tier")
	}
}
