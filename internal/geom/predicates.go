package geom

import (
	"math"
	"math/big"
	"sync/atomic"
)

// The predicates below follow the usual filtered-exact design: a fast
// float64 evaluation with a conservative forward error bound; when the
// result magnitude falls under the bound the sign is resolved by the
// staged adaptive expansion tiers in adaptive.go (allocation-free, exact).
// The original math/big rational evaluations are retained, unexported, as
// the differential-test oracle: float64 inputs convert to big.Rat exactly,
// so the oracle is fully exact and the expansion tiers must agree with it
// bit-for-bit on every input (enforced by FuzzPredicatesExact and the
// byte-identical render regression tests).
//
// Inputs must be finite, and coordinate products must stay inside the
// normal float64 range (no overflow, no gradual underflow) — Shewchuk's
// usual exponent-range caveat. Both hold for every production call site:
// ingestion rejects non-finite coordinates and catalogs are box-normalized
// before tessellation.
//
// Sign conventions (pinned by unit tests):
//
//	Orient3D(a,b,c,d) > 0  ⇔ d on the positive side of plane (a,b,c),
//	                         i.e. det[b-a; c-a; d-a] > 0 (rows).
//	InSphere(a,b,c,d,e) > 0 ⇔ e strictly inside the circumsphere of the
//	                         positively oriented tetrahedron (a,b,c,d).
//	Orient2D(a,b,c) > 0    ⇔ (a,b,c) counterclockwise.

// ExactCalls counts how many predicate evaluations fell through the
// static filter to an exact path (adaptive or oracle); exposed for the
// ablation benchmarks.
var ExactCalls atomic.Uint64

// oracleExact routes filter misses to the retained big.Rat oracle instead
// of the adaptive expansion tiers. Used by the differential and
// byte-identical regression tests; read with atomic.Bool so concurrent
// render walkers see a consistent value.
var oracleExact atomic.Bool

// SetOracleFallback toggles the big.Rat oracle fallback for all three
// predicates and returns the previous setting. Test-only knob: the oracle
// and the adaptive tiers return identical signs on every input, so this
// changes performance (and allocation behavior), never results.
func SetOracleFallback(on bool) (prev bool) {
	return oracleExact.Swap(on)
}

// epsilon for the static filters; see Shewchuk (1997) for the style of
// bound. We use simple, slightly conservative constants.
const (
	macheps     = 2.220446049250313e-16 // 2^-52
	o2dErrBound = (3.0 + 16.0*macheps) * macheps
	o3dErrBound = (7.0 + 56.0*macheps) * macheps
	isErrBound  = (16.0 + 224.0*macheps) * macheps
)

// InSphere's permanent — sixteen Abs and as many multiplies as the
// determinant itself — exists only to scale isErrBound, and on all but
// near-cospherical inputs |det| clears that bound by orders of magnitude.
// A bound on the permanent from the four lifts alone decides those first.
// The permanent is, for each of the four points, its lift times six
// products |x·y·z| of coordinates of the other three; a coordinate is at
// most the root of its point's lift and a lift at most their sum S, so
// permanent <= 6·S^2.5. Stage 1 asks for |det| > 24·isErrBound·S^2.5,
// squared so that it needs no root: four times the bound, which covers the
// rounding of det², S and the computed permanent thousands of times over,
// and a few ulps more. A stage-1 accept therefore implies the permanent
// test would accept, with the same sign: the filter only ever skips work,
// and which calls reach the exact tiers — ExactCalls, every mesh bit — is
// what it was (TestInSphereStage1).
//
// Out of range the test fails safe. An S⁵ that overflows compares false.
// Where S⁵ or det² underflows the products lose their relative accuracy,
// so the bound is raised by isStage1Floor, far above anything an underflow
// can produce and far below any det² a normal build sees: under it every
// call takes the permanent test as before.
const (
	isStage1Sq    = (24 * isErrBound) * (24 * isErrBound) * (1 + 64*macheps)
	isStage1Floor = 0x1p-1000
)

// inSphereStage1 reports whether det, InSphere's float64 determinant,
// clears the stage-1 bound for lifts, the sum of the four lifts.
func inSphereStage1(det, lifts float64) bool {
	l2 := lifts * lifts
	return det*det > isStage1Sq*(l2*l2*lifts)+isStage1Floor
}

// Orient2D returns +1, 0, or -1 as c lies to the left of, on, or to the
// right of the directed line a→b.
func Orient2D(a, b, c Vec2) int {
	detL := (a.X - c.X) * (b.Y - c.Y)
	detR := (a.Y - c.Y) * (b.X - c.X)
	det := detL - detR
	sum := math.Abs(detL) + math.Abs(detR)
	if math.Abs(det) > o2dErrBound*sum {
		return sgn(det)
	}
	ExactCalls.Add(1)
	if oracleExact.Load() {
		return orient2DExact(a, b, c)
	}
	return orient2DAdapt(a, b, c, sum)
}

func orient2DExact(a, b, c Vec2) int {
	ax, ay := rat(a.X), rat(a.Y)
	bx, by := rat(b.X), rat(b.Y)
	cx, cy := rat(c.X), rat(c.Y)
	l := new(big.Rat).Mul(new(big.Rat).Sub(ax, cx), new(big.Rat).Sub(by, cy))
	r := new(big.Rat).Mul(new(big.Rat).Sub(ay, cy), new(big.Rat).Sub(bx, cx))
	return l.Sub(l, r).Sign()
}

// Orient3D returns +1, 0, or -1 as d lies on the positive side of, on, or
// on the negative side of the plane through a, b, c.
func Orient3D(a, b, c, d Vec3) int {
	adx, ady, adz := a.X-d.X, a.Y-d.Y, a.Z-d.Z
	bdx, bdy, bdz := b.X-d.X, b.Y-d.Y, b.Z-d.Z
	cdx, cdy, cdz := c.X-d.X, c.Y-d.Y, c.Z-d.Z

	bdxcdy := bdx * cdy
	cdxbdy := cdx * bdy
	cdxady := cdx * ady
	adxcdy := adx * cdy
	adxbdy := adx * bdy
	bdxady := bdx * ady

	// det[b-a;c-a;d-a] equals -det with rows (a-d,b-d,c-d)?  We compute the
	// standard Shewchuk arrangement: det[a-d; b-d; c-d] which equals
	// det[b-a; c-a; d-a] up to sign.  For rows (a-d, b-d, c-d):
	//   det = adz*(bdx*cdy - cdx*bdy) + bdz*(cdx*ady - adx*cdy) + cdz*(adx*bdy - bdx*ady)
	// and det[a-d;b-d;c-d] = -det[b-a;c-a;d-a]... sign fixed by tests: we
	// return the sign matching the documented convention.
	det := adz*(bdxcdy-cdxbdy) + bdz*(cdxady-adxcdy) + cdz*(adxbdy-bdxady)

	permanent := (math.Abs(bdxcdy)+math.Abs(cdxbdy))*math.Abs(adz) +
		(math.Abs(cdxady)+math.Abs(adxcdy))*math.Abs(bdz) +
		(math.Abs(adxbdy)+math.Abs(bdxady))*math.Abs(cdz)
	if math.Abs(det) > o3dErrBound*permanent {
		return -sgn(det)
	}
	ExactCalls.Add(1)
	if oracleExact.Load() {
		return orient3DExact(a, b, c, d)
	}
	return orient3DAdapt(a, b, c, d, permanent)
}

func orient3DExact(a, b, c, d Vec3) int {
	m := [3][3]*big.Rat{
		{ratSub(b.X, a.X), ratSub(b.Y, a.Y), ratSub(b.Z, a.Z)},
		{ratSub(c.X, a.X), ratSub(c.Y, a.Y), ratSub(c.Z, a.Z)},
		{ratSub(d.X, a.X), ratSub(d.Y, a.Y), ratSub(d.Z, a.Z)},
	}
	return det3Rat(m).Sign()
}

// InSphere returns +1, 0, or -1 as e lies strictly inside, on, or outside
// the circumsphere of the tetrahedron (a,b,c,d). The tetrahedron MUST be
// positively oriented (Orient3D(a,b,c,d) > 0); callers dealing with
// unknown orientation should flip the result by the orientation sign.
func InSphere(a, b, c, d, e Vec3) int {
	aex, aey, aez := a.X-e.X, a.Y-e.Y, a.Z-e.Z
	bex, bey, bez := b.X-e.X, b.Y-e.Y, b.Z-e.Z
	cex, cey, cez := c.X-e.X, c.Y-e.Y, c.Z-e.Z
	dex, dey, dez := d.X-e.X, d.Y-e.Y, d.Z-e.Z

	aexbey := aex * bey
	bexaey := bex * aey
	ab := aexbey - bexaey
	bexcey := bex * cey
	cexbey := cex * bey
	bc := bexcey - cexbey
	cexdey := cex * dey
	dexcey := dex * cey
	cd := cexdey - dexcey
	dexaey := dex * aey
	aexdey := aex * dey
	da := dexaey - aexdey
	aexcey := aex * cey
	cexaey := cex * aey
	ac := aexcey - cexaey
	bexdey := bex * dey
	dexbey := dex * bey
	bd := bexdey - dexbey

	abc := aez*bc - bez*ac + cez*ab
	bcd := bez*cd - cez*bd + dez*bc
	cda := cez*da + dez*ac + aez*cd
	dab := dez*ab + aez*bd + bez*da

	alift := aex*aex + aey*aey + aez*aez
	blift := bex*bex + bey*bey + bez*bez
	clift := cex*cex + cey*cey + cez*cez
	dlift := dex*dex + dey*dey + dez*dez

	det := (dlift*abc - clift*dab) + (blift*cda - alift*bcd)

	// With our orientation convention (Orient3D(a,b,c,d) > 0) the lifted
	// determinant is negative for points inside the sphere; flip so that
	// +1 means inside.
	if inSphereStage1(det, (alift+blift)+(clift+dlift)) {
		return -sgn(det)
	}

	aezplus := math.Abs(aez)
	bezplus := math.Abs(bez)
	cezplus := math.Abs(cez)
	dezplus := math.Abs(dez)
	aexbeyplus := math.Abs(aexbey)
	bexaeyplus := math.Abs(bexaey)
	bexceyplus := math.Abs(bexcey)
	cexbeyplus := math.Abs(cexbey)
	cexdeyplus := math.Abs(cexdey)
	dexceyplus := math.Abs(dexcey)
	dexaeyplus := math.Abs(dexaey)
	aexdeyplus := math.Abs(aexdey)
	aexceyplus := math.Abs(aexcey)
	cexaeyplus := math.Abs(cexaey)
	bexdeyplus := math.Abs(bexdey)
	dexbeyplus := math.Abs(dexbey)
	permanent := ((cexdeyplus+dexceyplus)*bezplus+(dexbeyplus+bexdeyplus)*cezplus+(bexceyplus+cexbeyplus)*dezplus)*alift +
		((dexaeyplus+aexdeyplus)*cezplus+(aexceyplus+cexaeyplus)*dezplus+(cexdeyplus+dexceyplus)*aezplus)*blift +
		((aexbeyplus+bexaeyplus)*dezplus+(bexdeyplus+dexbeyplus)*aezplus+(dexaeyplus+aexdeyplus)*bezplus)*clift +
		((bexceyplus+cexbeyplus)*aezplus+(cexaeyplus+aexceyplus)*bezplus+(aexbeyplus+bexaeyplus)*cezplus)*dlift

	if math.Abs(det) > isErrBound*permanent {
		return -sgn(det)
	}
	ExactCalls.Add(1)
	if oracleExact.Load() {
		return inSphereExact(a, b, c, d, e)
	}
	return inSphereAdapt(a, b, c, d, e, permanent)
}

func inSphereExact(a, b, c, d, e Vec3) int {
	rows := [4]Vec3{a, b, c, d}
	var m [4][4]*big.Rat
	for i, p := range rows {
		x := ratSub(p.X, e.X)
		y := ratSub(p.Y, e.Y)
		z := ratSub(p.Z, e.Z)
		l := new(big.Rat).Mul(x, x)
		l.Add(l, new(big.Rat).Mul(y, y))
		l.Add(l, new(big.Rat).Mul(z, z))
		m[i] = [4]*big.Rat{x, y, z, l}
	}
	// As established analytically (and pinned by tests): with rows
	// (p - e, |p - e|^2) for p in a,b,c,d positively oriented, e inside
	// the circumsphere ⇔ det < 0. Return +1 for inside.
	return -det4Rat(m).Sign()
}

func sgn(x float64) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}

func rat(x float64) *big.Rat { return new(big.Rat).SetFloat64(x) }

func ratSub(x, y float64) *big.Rat { return new(big.Rat).Sub(rat(x), rat(y)) }

func det2Rat(a, b, c, d *big.Rat) *big.Rat {
	l := new(big.Rat).Mul(a, d)
	r := new(big.Rat).Mul(b, c)
	return l.Sub(l, r)
}

func det3Rat(m [3][3]*big.Rat) *big.Rat {
	t0 := new(big.Rat).Mul(m[0][0], det2Rat(m[1][1], m[1][2], m[2][1], m[2][2]))
	t1 := new(big.Rat).Mul(m[0][1], det2Rat(m[1][0], m[1][2], m[2][0], m[2][2]))
	t2 := new(big.Rat).Mul(m[0][2], det2Rat(m[1][0], m[1][1], m[2][0], m[2][1]))
	t0.Sub(t0, t1)
	t0.Add(t0, t2)
	return t0
}

func det4Rat(m [4][4]*big.Rat) *big.Rat {
	res := new(big.Rat)
	sign := 1
	for col := 0; col < 4; col++ {
		var minor [3][3]*big.Rat
		for r := 1; r < 4; r++ {
			mc := 0
			for c := 0; c < 4; c++ {
				if c == col {
					continue
				}
				minor[r-1][mc] = m[r][c]
				mc++
			}
		}
		term := new(big.Rat).Mul(m[0][col], det3Rat(minor))
		if sign > 0 {
			res.Add(res, term)
		} else {
			res.Sub(res, term)
		}
		sign = -sign
	}
	return res
}
