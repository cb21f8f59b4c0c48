package geom

import (
	"math"
	"math/rand"
	"testing"
)

// inSphereTerms repeats InSphere's float64 evaluation and returns the three
// numbers its two filter stages compare: the determinant, the sum of the
// lifts (stage 1) and the permanent (stage 2). checkInSphereStages ties it
// to the production code through ExactCalls, so it cannot drift unnoticed.
func inSphereTerms(a, b, c, d, e Vec3) (det, lifts, permanent float64) {
	aex, aey, aez := a.X-e.X, a.Y-e.Y, a.Z-e.Z
	bex, bey, bez := b.X-e.X, b.Y-e.Y, b.Z-e.Z
	cex, cey, cez := c.X-e.X, c.Y-e.Y, c.Z-e.Z
	dex, dey, dez := d.X-e.X, d.Y-e.Y, d.Z-e.Z

	aexbey, bexaey := aex*bey, bex*aey
	bexcey, cexbey := bex*cey, cex*bey
	cexdey, dexcey := cex*dey, dex*cey
	dexaey, aexdey := dex*aey, aex*dey
	aexcey, cexaey := aex*cey, cex*aey
	bexdey, dexbey := bex*dey, dex*bey
	ab, bc, cd := aexbey-bexaey, bexcey-cexbey, cexdey-dexcey
	da, ac, bd := dexaey-aexdey, aexcey-cexaey, bexdey-dexbey

	abc := aez*bc - bez*ac + cez*ab
	bcd := bez*cd - cez*bd + dez*bc
	cda := cez*da + dez*ac + aez*cd
	dab := dez*ab + aez*bd + bez*da

	alift := aex*aex + aey*aey + aez*aez
	blift := bex*bex + bey*bey + bez*bez
	clift := cex*cex + cey*cey + cez*cez
	dlift := dex*dex + dey*dey + dez*dez

	det = (dlift*abc - clift*dab) + (blift*cda - alift*bcd)
	lifts = (alift + blift) + (clift + dlift)

	abs := math.Abs
	permanent = ((abs(cexdey)+abs(dexcey))*abs(bez)+(abs(dexbey)+abs(bexdey))*abs(cez)+(abs(bexcey)+abs(cexbey))*abs(dez))*alift +
		((abs(dexaey)+abs(aexdey))*abs(cez)+(abs(aexcey)+abs(cexaey))*abs(dez)+(abs(cexdey)+abs(dexcey))*abs(aez))*blift +
		((abs(aexbey)+abs(bexaey))*abs(dez)+(abs(bexdey)+abs(dexbey))*abs(aez)+(abs(dexaey)+abs(aexdey))*abs(bez))*clift +
		((abs(bexcey)+abs(cexbey))*abs(aez)+(abs(cexaey)+abs(aexcey))*abs(bez)+(abs(aexbey)+abs(bexaey))*abs(cez))*dlift
	return det, lifts, permanent
}

// checkInSphereStages asserts, for one input, what makes the stage-1 filter
// invisible: it accepts only where the permanent test accepts; InSphere
// reaches an exact tier exactly when the permanent test rejects — as it did
// when that test stood alone; and the sign is the oracle's. It reports
// which stages accepted.
func checkInSphereStages(t *testing.T, a, b, c, d, e Vec3) (stage1, stage2 bool) {
	t.Helper()
	det, lifts, permanent := inSphereTerms(a, b, c, d, e)
	stage1 = inSphereStage1(det, lifts)
	stage2 = math.Abs(det) > isErrBound*permanent
	if stage1 && !stage2 {
		t.Fatalf("InSphere(%v,%v,%v,%v,%v): stage 1 accepts det %g on lifts %g, but isErrBound*permanent = %g rejects it",
			a, b, c, d, e, det, lifts, isErrBound*permanent)
	}
	before := ExactCalls.Load()
	got := InSphere(a, b, c, d, e)
	if exact := ExactCalls.Load() - before; exact > 1 || (exact == 1) == stage2 {
		t.Fatalf("InSphere(%v,%v,%v,%v,%v): %d exact calls, permanent test accepts: %v", a, b, c, d, e, exact, stage2)
	}
	if want := inSphereExact(a, b, c, d, e); got != want {
		t.Fatalf("InSphere(%v,%v,%v,%v,%v) = %d, oracle %d", a, b, c, d, e, got, want)
	}
	return stage1, stage2
}

// scaled multiplies every coordinate by 2^exp — exactly, so the sign of
// every predicate is unchanged.
func scaled(p Vec3, exp int) Vec3 {
	return Vec3{math.Ldexp(p.X, exp), math.Ldexp(p.Y, exp), math.Ldexp(p.Z, exp)}
}

// TestInSphereStage1 runs checkInSphereStages over the regimes a build
// meets: random points, where stage 1 must decide nearly every call (or it
// saves nothing); a fifth point within 1e-9 to 1e-17 of the circumsphere,
// which sweeps det across both thresholds; neighbouring lattice points,
// often exactly cospherical; and the near-cospherical inputs again scaled
// by 2^±104, where det² or the fifth power of the lifts leaves the float64
// range and stage 1 must stand aside.
func TestInSphereStage1(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	unit := func() Vec3 { return Vec3{rng.Float64(), rng.Float64(), rng.Float64()} }
	nearSphere := func() (a, b, c, d, e Vec3) {
		for {
			a, b, c, d = unit(), unit(), unit(), unit()
			center, r2, ok := circumsphere(a, b, c, d)
			if !ok || r2 > 100 {
				continue
			}
			dir := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			off := math.Pow(10, -9-8*rng.Float64())
			if rng.Intn(2) == 0 {
				off = -off
			}
			e = center.Add(dir.Scale(math.Sqrt(r2) * (1 + off) / dir.Norm()))
			return a, b, c, d, e
		}
	}
	lattice := func() Vec3 { // a 3x3x3 patch of the 27^3 lattice: the scale of one cavity
		return Vec3{float64(12+rng.Intn(3)) / 26, float64(12+rng.Intn(3)) / 26, float64(12+rng.Intn(3)) / 26}
	}

	const n = 4000
	var random1, near1, near2, lat1, lat2 int
	for i := 0; i < n; i++ {
		if s1, _ := checkInSphereStages(t, unit(), unit(), unit(), unit(), unit()); s1 {
			random1++
		}
		a, b, c, d, e := nearSphere()
		s1, s2 := checkInSphereStages(t, a, b, c, d, e)
		near1, near2 = near1+btoi(s1), near2+btoi(s2)
		s1, s2 = checkInSphereStages(t, lattice(), lattice(), lattice(), lattice(), lattice())
		lat1, lat2 = lat1+btoi(s1), lat2+btoi(s2)

		if i%8 != 0 {
			continue // the oracle is slow at these exponents
		}
		for _, exp := range []int{104, -104} {
			if s1, _ := checkInSphereStages(t, scaled(a, exp), scaled(b, exp), scaled(c, exp), scaled(d, exp), scaled(e, exp)); s1 {
				t.Fatalf("stage 1 accepted an input scaled by 2^%d: det² or lifts⁵ is out of range there", exp)
			}
		}
	}
	t.Logf("accepted by stage 1 / by the permanent test, of %d: random %d / -, near-cospherical %d / %d, lattice %d / %d",
		n, random1, near1, near2, lat1, lat2)
	if random1 < n*999/1000 {
		t.Errorf("stage 1 decided %d of %d random calls: it should decide all but a few", random1, n)
	}
	if near1 == 0 || near1 >= near2 || near2 >= n {
		t.Errorf("near-cospherical inputs do not straddle the thresholds: stage 1 accepts %d, the permanent test %d, of %d", near1, near2, n)
	}
	if lat1 == 0 || lat2 >= n {
		t.Errorf("lattice inputs: stage 1 accepts %d, the permanent test %d, of %d: want both outcomes", lat1, lat2, n)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
