package geom

import "math"

// This file implements the floating-point expansion arithmetic of
// Shewchuk ("Adaptive Precision Floating-Point Arithmetic and Fast Robust
// Geometric Predicates", 1997): exact arithmetic over *expansions*, sums
// x = e_0 + e_1 + ... + e_{n-1} of ordinary float64 components that are
// nonoverlapping and sorted by increasing magnitude (e[0] smallest). Every
// routine writes into caller-provided fixed-size arrays and returns the
// component count, so the exact predicate tiers built on top perform zero
// heap allocations even on fully degenerate input.
//
// All routines assume round-to-nearest-even IEEE 754 double precision and
// inputs whose products neither overflow nor lose bits to gradual
// underflow — the same exponent-range caveat as Shewchuk's predicates.
// The delaunay/render layers guarantee finite inputs (Vec3.IsFinite).

// fastTwoSum returns (x, y) with a + b = x + y exactly, x = fl(a+b).
// Requires |a| >= |b| (or a == 0).
func fastTwoSum(a, b float64) (x, y float64) {
	x = a + b
	bvirt := x - a
	y = b - bvirt
	return x, y
}

// twoSum returns (x, y) with a + b = x + y exactly, x = fl(a+b). No
// magnitude precondition (Knuth's branch-free version).
func twoSum(a, b float64) (x, y float64) {
	x = a + b
	bvirt := x - a
	avirt := x - bvirt
	bround := b - bvirt
	around := a - avirt
	y = around + bround
	return x, y
}

// twoDiffTail returns the roundoff y = (a - b) - x for x = fl(a-b).
func twoDiffTail(a, b, x float64) float64 {
	bvirt := a - x
	avirt := x + bvirt
	bround := bvirt - b
	around := a - avirt
	return around + bround
}

// twoProduct returns (x, y) with a*b = x + y exactly, x = fl(a*b). The
// tail comes from a fused multiply-add (exact because a*b - fl(a*b) is
// representable whenever the product stays in the normal range); math.FMA
// uses the hardware instruction where available and a correctly rounded
// software path elsewhere.
func twoProduct(a, b float64) (x, y float64) {
	x = a * b
	return x, math.FMA(a, b, -x)
}

// estimate returns a one-float approximation of the expansion's value,
// accurate to within one ulp of the true sum (error < resultErrBound
// relative to the largest component, per Shewchuk).
func estimate(e []float64) float64 {
	q := e[0]
	for i := 1; i < len(e); i++ {
		q += e[i]
	}
	return q
}

// expSign returns the sign of a nonoverlapping expansion: the sign of its
// largest-magnitude (last) component.
func expSign(e []float64) int {
	return sgn(e[len(e)-1])
}

// fastExpansionSumZeroElim writes the zero-eliminated sum of expansions e
// and f into h and returns the component count (always >= 1; a single 0.0
// represents zero). e and f must each be nonoverlapping and increasing in
// magnitude with at least one component; h must not alias e or f and
// needs capacity len(e)+len(f). (Shewchuk's FAST-EXPANSION-SUM; requires
// round-to-even, which IEEE 754 guarantees.)
func fastExpansionSumZeroElim(e, f, h []float64) int {
	elen, flen := len(e), len(f)
	enow, fnow := e[0], f[0]
	eindex, findex := 0, 0
	var q float64
	if (fnow > enow) == (fnow > -enow) {
		q = enow
		eindex++
		if eindex < elen {
			enow = e[eindex]
		}
	} else {
		q = fnow
		findex++
		if findex < flen {
			fnow = f[findex]
		}
	}
	hindex := 0
	var hh float64
	if eindex < elen && findex < flen {
		if (fnow > enow) == (fnow > -enow) {
			q, hh = fastTwoSum(enow, q)
			eindex++
			if eindex < elen {
				enow = e[eindex]
			}
		} else {
			q, hh = fastTwoSum(fnow, q)
			findex++
			if findex < flen {
				fnow = f[findex]
			}
		}
		if hh != 0 {
			h[hindex] = hh
			hindex++
		}
		for eindex < elen && findex < flen {
			if (fnow > enow) == (fnow > -enow) {
				q, hh = twoSum(q, enow)
				eindex++
				if eindex < elen {
					enow = e[eindex]
				}
			} else {
				q, hh = twoSum(q, fnow)
				findex++
				if findex < flen {
					fnow = f[findex]
				}
			}
			if hh != 0 {
				h[hindex] = hh
				hindex++
			}
		}
	}
	for eindex < elen {
		q, hh = twoSum(q, enow)
		eindex++
		if eindex < elen {
			enow = e[eindex]
		}
		if hh != 0 {
			h[hindex] = hh
			hindex++
		}
	}
	for findex < flen {
		q, hh = twoSum(q, fnow)
		findex++
		if findex < flen {
			fnow = f[findex]
		}
		if hh != 0 {
			h[hindex] = hh
			hindex++
		}
	}
	if q != 0 || hindex == 0 {
		h[hindex] = q
		hindex++
	}
	return hindex
}

// scaleExpansionZeroElim writes the zero-eliminated product of expansion e
// by the single float b into h and returns the component count. h must
// not alias e and needs capacity 2*len(e). (Shewchuk's SCALE-EXPANSION.)
func scaleExpansionZeroElim(e []float64, b float64, h []float64) int {
	q, hh := twoProduct(e[0], b)
	hindex := 0
	if hh != 0 {
		h[hindex] = hh
		hindex++
	}
	for i := 1; i < len(e); i++ {
		p1, p0 := twoProduct(e[i], b)
		var sum float64
		sum, hh = twoSum(q, p0)
		if hh != 0 {
			h[hindex] = hh
			hindex++
		}
		q, hh = fastTwoSum(p1, sum)
		if hh != 0 {
			h[hindex] = hh
			hindex++
		}
	}
	if q != 0 || hindex == 0 {
		h[hindex] = q
		hindex++
	}
	return hindex
}

// copySigned copies e into h multiplied by s, which must be +1 or -1
// (sign flips preserve the nonoverlapping increasing-magnitude form).
func copySigned(e []float64, s float64, h []float64) int {
	for i, v := range e {
		h[i] = s * v
	}
	return len(e)
}

// prodDiff writes the exact 2x2 determinant a*b - c*d into h (at most 4
// components) and returns the count.
func prodDiff(a, b, c, d float64, h []float64) int {
	ph, pl := twoProduct(a, b)
	qh, ql := twoProduct(-c, d)
	p := [2]float64{pl, ph}
	q := [2]float64{ql, qh}
	return fastExpansionSumZeroElim(p[:], q[:], h)
}

// scale3 writes s1*e1 + s2*e2 + s3*e3 into h and returns the count. The
// e_i must have at most 4 components each; h needs capacity 24.
func scale3(e1 []float64, s1 float64, e2 []float64, s2 float64, e3 []float64, s3 float64, h []float64) int {
	var t1, t2, t3 [8]float64
	var t12 [16]float64
	n1 := scaleExpansionZeroElim(e1, s1, t1[:])
	n2 := scaleExpansionZeroElim(e2, s2, t2[:])
	n3 := scaleExpansionZeroElim(e3, s3, t3[:])
	n12 := fastExpansionSumZeroElim(t1[:n1], t2[:n2], t12[:])
	return fastExpansionSumZeroElim(t12[:n12], t3[:n3], h)
}

// sumSquares2 writes x*x + y*y exactly into h (capacity 4).
func sumSquares2(x, y float64, h []float64) int {
	xh, xl := twoProduct(x, x)
	yh, yl := twoProduct(y, y)
	p := [2]float64{xl, xh}
	q := [2]float64{yl, yh}
	return fastExpansionSumZeroElim(p[:], q[:], h)
}

// sumSquares3 writes x*x + y*y + z*z exactly into h (capacity 6).
func sumSquares3(x, y, z float64, h []float64) int {
	var xy [4]float64
	nxy := sumSquares2(x, y, xy[:])
	zh, zl := twoProduct(z, z)
	zz := [2]float64{zl, zh}
	return fastExpansionSumZeroElim(xy[:nxy], zz[:], h)
}

// mulExpansion computes the exact product e*f by scaling f by each
// component of e and accumulating. term needs capacity 2*len(f); ping and
// pong each need capacity 2*len(e)*len(f). The result lands in (and is
// returned as a sub-slice of) ping or pong.
func mulExpansion(e, f, term, ping, pong []float64) []float64 {
	n := scaleExpansionZeroElim(f, e[0], ping)
	cur, nxt := ping, pong
	for i := 1; i < len(e); i++ {
		tn := scaleExpansionZeroElim(f, e[i], term)
		n = fastExpansionSumZeroElim(cur[:n], term[:tn], nxt)
		cur, nxt = nxt, cur
	}
	return cur[:n]
}
