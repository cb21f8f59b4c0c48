package geom

import (
	"math"
	"sync/atomic"
)

// Staged adaptive exact predicates built on the expansion arithmetic in
// expansion.go. Each predicate that misses the static filter runs through
// progressively stronger (and more expensive) tiers, returning as soon as
// an error bound certifies the sign:
//
//	stage A — the exact expansion determinant of the *rounded* coordinate
//	          differences, certified by a B-style bound on the rounding of
//	          the differences themselves. If every twoDiffTail is zero the
//	          rounded differences are the true differences and the stage-A
//	          expansion is the exact determinant: return its sign.
//	stage C — a first-order (linear in the tails) floating-point correction
//	          added to the stage-A estimate, certified by a conservative
//	          quadratic bound.
//	exact   — the fully exact determinant over the *untranslated* inputs,
//	          via cofactor expansion along the lifted column. Never wrong,
//	          never allocates: all buffers are fixed-size stack arrays.
//
// The stage-A/C bound constants follow Shewchuk (1997); our stage-C
// correction formulas are derived independently of his (we use float
// approximations of the minors where he uses expansion estimates), so the
// quadratic-term constants carry a generous 64x safety factor. Extra
// conservatism only sends a rare borderline case to the exact tier; it can
// never produce a wrong sign.
//
// Sign conventions match predicates.go exactly: the exact untranslated
// determinants reduce to the translated filter determinants by row/column
// elimination (pinned by the differential fuzzer against the big.Rat
// oracle), so every tier returns the same orientation the filter would.

// DeepExactCalls counts predicate evaluations that fell through all the
// adaptive stages to the fully exact cofactor tier; exposed (with
// ExactCalls) for the ablation benchmarks and tier-routing tests.
var DeepExactCalls atomic.Uint64

const (
	// Error of estimate() relative to the expansion's largest component.
	resultErrBound = (3 + 8*macheps) * macheps
	// Stage-A certification bounds (Shewchuk's B bounds).
	ccwErrBoundB = (2 + 12*macheps) * macheps
	o3dErrBoundB = (3 + 28*macheps) * macheps
	ispErrBoundB = (5 + 72*macheps) * macheps
	// Stage-C certification bounds: Shewchuk's C constants with a 64x
	// safety factor for our independently derived correction formulas.
	ccwErrBoundCSafe = 64 * (9 + 64*macheps) * macheps * macheps
	o3dErrBoundCSafe = 64 * (26 + 288*macheps) * macheps * macheps
	ispErrBoundCSafe = 64 * (71 + 1408*macheps) * macheps * macheps
)

// sum4Signed writes s1*e1 + s2*e2 + s3*e3 + s4*e4 into h and returns the
// count. The s_i must be +1 or -1; the e_i at most 24 components each; h
// needs capacity 96.
func sum4Signed(e1 []float64, s1 float64, e2 []float64, s2 float64, e3 []float64, s3 float64, e4 []float64, s4 float64, h []float64) int {
	var n1, n2, n3, n4 [24]float64
	var s12, s34 [48]float64
	c1 := copySigned(e1, s1, n1[:])
	c2 := copySigned(e2, s2, n2[:])
	c3 := copySigned(e3, s3, n3[:])
	c4 := copySigned(e4, s4, n4[:])
	m12 := fastExpansionSumZeroElim(n1[:c1], n2[:c2], s12[:])
	m34 := fastExpansionSumZeroElim(n3[:c3], n4[:c4], s34[:])
	return fastExpansionSumZeroElim(s12[:m12], s34[:m34], h)
}

// orient2DAdapt resolves an Orient2D call that missed the static filter.
// detsum is the filter's |detL| + |detR| magnitude estimate.
func orient2DAdapt(a, b, c Vec2, detsum float64) int {
	acx := a.X - c.X
	bcx := b.X - c.X
	acy := a.Y - c.Y
	bcy := b.Y - c.Y

	// Stage A: exact determinant of the rounded differences.
	var fin [4]float64
	nfin := prodDiff(acx, bcy, acy, bcx, fin[:])
	det := estimate(fin[:nfin])
	if errbound := ccwErrBoundB * detsum; det >= errbound || -det >= errbound {
		return sgn(det)
	}

	acxtail := twoDiffTail(a.X, c.X, acx)
	bcxtail := twoDiffTail(b.X, c.X, bcx)
	acytail := twoDiffTail(a.Y, c.Y, acy)
	bcytail := twoDiffTail(b.Y, c.Y, bcy)
	if acxtail == 0 && acytail == 0 && bcxtail == 0 && bcytail == 0 {
		return expSign(fin[:nfin])
	}

	// Stage C: first-order tail correction.
	errbound := ccwErrBoundCSafe*detsum + resultErrBound*math.Abs(det)
	det += (acx*bcytail + bcy*acxtail) - (acy*bcxtail + bcx*acytail)
	if det >= errbound || -det >= errbound {
		return sgn(det)
	}

	// Exact: det = (acx+acxtail)(bcy+bcytail) - (acy+acytail)(bcx+bcxtail)
	// with every product expanded exactly (<= 16 components).
	DeepExactCalls.Add(1)
	u := [2]float64{acxtail, acx}
	v := [2]float64{bcytail, bcy}
	w := [2]float64{-acytail, -acy}
	x := [2]float64{bcxtail, bcx}
	var term [4]float64
	var p1a, p1b, p2a, p2b [8]float64
	p1 := mulExpansion(u[:], v[:], term[:], p1a[:], p1b[:])
	p2 := mulExpansion(w[:], x[:], term[:], p2a[:], p2b[:])
	var dd [16]float64
	ndd := fastExpansionSumZeroElim(p1, p2, dd[:])
	return expSign(dd[:ndd])
}

// orient3DAdapt resolves an Orient3D call that missed the static filter.
// permanent is the filter's magnitude estimate of the determinant terms.
func orient3DAdapt(a, b, c, d Vec3, permanent float64) int {
	adx, ady, adz := a.X-d.X, a.Y-d.Y, a.Z-d.Z
	bdx, bdy, bdz := b.X-d.X, b.Y-d.Y, b.Z-d.Z
	cdx, cdy, cdz := c.X-d.X, c.Y-d.Y, c.Z-d.Z

	// Stage A: exact determinant of the rounded differences, in the same
	// arrangement as the filter (rows a-d, b-d, c-d).
	var m1, m2, m3 [4]float64
	n1 := prodDiff(bdx, cdy, cdx, bdy, m1[:])
	n2 := prodDiff(cdx, ady, adx, cdy, m2[:])
	n3 := prodDiff(adx, bdy, bdx, ady, m3[:])
	var t1, t2, t3 [8]float64
	l1 := scaleExpansionZeroElim(m1[:n1], adz, t1[:])
	l2 := scaleExpansionZeroElim(m2[:n2], bdz, t2[:])
	l3 := scaleExpansionZeroElim(m3[:n3], cdz, t3[:])
	var t12 [16]float64
	var fin [24]float64
	n12 := fastExpansionSumZeroElim(t1[:l1], t2[:l2], t12[:])
	nfin := fastExpansionSumZeroElim(t12[:n12], t3[:l3], fin[:])
	det := estimate(fin[:nfin])
	if errbound := o3dErrBoundB * permanent; det >= errbound || -det >= errbound {
		return -sgn(det)
	}

	adxtail := twoDiffTail(a.X, d.X, adx)
	adytail := twoDiffTail(a.Y, d.Y, ady)
	adztail := twoDiffTail(a.Z, d.Z, adz)
	bdxtail := twoDiffTail(b.X, d.X, bdx)
	bdytail := twoDiffTail(b.Y, d.Y, bdy)
	bdztail := twoDiffTail(b.Z, d.Z, bdz)
	cdxtail := twoDiffTail(c.X, d.X, cdx)
	cdytail := twoDiffTail(c.Y, d.Y, cdy)
	cdztail := twoDiffTail(c.Z, d.Z, cdz)
	if adxtail == 0 && adytail == 0 && adztail == 0 &&
		bdxtail == 0 && bdytail == 0 && bdztail == 0 &&
		cdxtail == 0 && cdytail == 0 && cdztail == 0 {
		return -expSign(fin[:nfin])
	}

	// Stage C: first-order tail correction.
	errbound := o3dErrBoundCSafe*permanent + resultErrBound*math.Abs(det)
	det += adz*((bdx*cdytail+cdy*bdxtail)-(bdy*cdxtail+cdx*bdytail)) +
		adztail*(bdx*cdy-bdy*cdx) +
		bdz*((cdx*adytail+ady*cdxtail)-(cdy*adxtail+adx*cdytail)) +
		bdztail*(cdx*ady-cdy*adx) +
		cdz*((adx*bdytail+bdy*adxtail)-(ady*bdxtail+bdx*adytail)) +
		cdztail*(adx*bdy-ady*bdx)
	if det >= errbound || -det >= errbound {
		return -sgn(det)
	}
	return orient3DExactExp(a, b, c, d)
}

// orient3DExactExp computes the exact sign over the untranslated inputs:
// the 4x4 determinant with rows (p, 1), expanded along the ones column as
// -T(bcd) + T(acd) - T(abd) + T(abc) where T(u,v,w) is the 3x3 determinant
// z_u*vw - z_v*uw + z_w*uv over the pairwise xy determinants pq.
// That 4x4 equals the filter's det over rows (a-d, b-d, c-d), so the
// returned sign is negated to match.
func orient3DExactExp(a, b, c, d Vec3) int {
	DeepExactCalls.Add(1)
	var ab, ac, ad, bc, bd, cd [4]float64
	nab := prodDiff(a.X, b.Y, b.X, a.Y, ab[:])
	nac := prodDiff(a.X, c.Y, c.X, a.Y, ac[:])
	nad := prodDiff(a.X, d.Y, d.X, a.Y, ad[:])
	nbc := prodDiff(b.X, c.Y, c.X, b.Y, bc[:])
	nbd := prodDiff(b.X, d.Y, d.X, b.Y, bd[:])
	ncd := prodDiff(c.X, d.Y, d.X, c.Y, cd[:])

	var tbcd, tacd, tabd, tabc [24]float64
	nbcd := scale3(cd[:ncd], b.Z, bd[:nbd], -c.Z, bc[:nbc], d.Z, tbcd[:])
	nacd := scale3(cd[:ncd], a.Z, ad[:nad], -c.Z, ac[:nac], d.Z, tacd[:])
	nabd := scale3(bd[:nbd], a.Z, ad[:nad], -b.Z, ab[:nab], d.Z, tabd[:])
	nabc := scale3(bc[:nbc], a.Z, ac[:nac], -b.Z, ab[:nab], c.Z, tabc[:])

	copySigned(tbcd[:nbcd], -1, tbcd[:nbcd])
	copySigned(tabd[:nabd], -1, tabd[:nabd])
	var s1, s2 [48]float64
	var dd [96]float64
	ns1 := fastExpansionSumZeroElim(tbcd[:nbcd], tacd[:nacd], s1[:])
	ns2 := fastExpansionSumZeroElim(tabd[:nabd], tabc[:nabc], s2[:])
	ndd := fastExpansionSumZeroElim(s1[:ns1], s2[:ns2], dd[:])
	return -expSign(dd[:ndd])
}

// inSphereAdapt resolves an InSphere call that missed the static filter.
func inSphereAdapt(a, b, c, d, e Vec3, permanent float64) int {
	aex, aey, aez := a.X-e.X, a.Y-e.Y, a.Z-e.Z
	bex, bey, bez := b.X-e.X, b.Y-e.Y, b.Z-e.Z
	cex, cey, cez := c.X-e.X, c.Y-e.Y, c.Z-e.Z
	dex, dey, dez := d.X-e.X, d.Y-e.Y, d.Z-e.Z

	// Stage A: exact determinant of the rounded differences, in the same
	// arrangement as the filter.
	var ab, bc, cd, da, ac, bd [4]float64
	nab := prodDiff(aex, bey, bex, aey, ab[:])
	nbc := prodDiff(bex, cey, cex, bey, bc[:])
	ncd := prodDiff(cex, dey, dex, cey, cd[:])
	nda := prodDiff(dex, aey, aex, dey, da[:])
	nac := prodDiff(aex, cey, cex, aey, ac[:])
	nbd := prodDiff(bex, dey, dex, bey, bd[:])

	var mabc, mbcd, mcda, mdab [24]float64
	nabc := scale3(bc[:nbc], aez, ac[:nac], -bez, ab[:nab], cez, mabc[:])
	nbcd := scale3(cd[:ncd], bez, bd[:nbd], -cez, bc[:nbc], dez, mbcd[:])
	ncda := scale3(da[:nda], cez, ac[:nac], dez, cd[:ncd], aez, mcda[:])
	ndab := scale3(ab[:nab], dez, bd[:nbd], aez, da[:nda], bez, mdab[:])

	var la, lb, lc, ld [6]float64
	nla := sumSquares3(aex, aey, aez, la[:])
	nlb := sumSquares3(bex, bey, bez, lb[:])
	nlc := sumSquares3(cex, cey, cez, lc[:])
	nld := sumSquares3(dex, dey, dez, ld[:])

	// det = (dlift*abc - clift*dab) + (blift*cda - alift*bcd)
	var term [48]float64
	var q1, q2 [288]float64
	var r1, r2 [1152]float64
	p := mulExpansion(ld[:nld], mabc[:nabc], term[:], q1[:], q2[:])
	rn := copy(r1[:], p)
	cur, nxt := r1[:], r2[:]
	p = mulExpansion(lc[:nlc], mdab[:ndab], term[:], q1[:], q2[:])
	copySigned(p, -1, p)
	rn = fastExpansionSumZeroElim(cur[:rn], p, nxt)
	cur, nxt = nxt, cur
	p = mulExpansion(lb[:nlb], mcda[:ncda], term[:], q1[:], q2[:])
	rn = fastExpansionSumZeroElim(cur[:rn], p, nxt)
	cur, nxt = nxt, cur
	p = mulExpansion(la[:nla], mbcd[:nbcd], term[:], q1[:], q2[:])
	copySigned(p, -1, p)
	rn = fastExpansionSumZeroElim(cur[:rn], p, nxt)
	cur = nxt
	det := estimate(cur[:rn])
	if errbound := ispErrBoundB * permanent; det >= errbound || -det >= errbound {
		return -sgn(det)
	}

	aextail := twoDiffTail(a.X, e.X, aex)
	aeytail := twoDiffTail(a.Y, e.Y, aey)
	aeztail := twoDiffTail(a.Z, e.Z, aez)
	bextail := twoDiffTail(b.X, e.X, bex)
	beytail := twoDiffTail(b.Y, e.Y, bey)
	beztail := twoDiffTail(b.Z, e.Z, bez)
	cextail := twoDiffTail(c.X, e.X, cex)
	ceytail := twoDiffTail(c.Y, e.Y, cey)
	ceztail := twoDiffTail(c.Z, e.Z, cez)
	dextail := twoDiffTail(d.X, e.X, dex)
	deytail := twoDiffTail(d.Y, e.Y, dey)
	deztail := twoDiffTail(d.Z, e.Z, dez)
	if aextail == 0 && aeytail == 0 && aeztail == 0 &&
		bextail == 0 && beytail == 0 && beztail == 0 &&
		cextail == 0 && ceytail == 0 && ceztail == 0 &&
		dextail == 0 && deytail == 0 && deztail == 0 {
		return -expSign(cur[:rn])
	}

	// Stage C: first-order tail correction over float approximations of
	// the pair determinants, minors, and lifts.
	errbound := ispErrBoundCSafe*permanent + resultErrBound*math.Abs(det)
	abF := aex*bey - bex*aey
	bcF := bex*cey - cex*bey
	cdF := cex*dey - dex*cey
	daF := dex*aey - aex*dey
	acF := aex*cey - cex*aey
	bdF := bex*dey - dex*bey
	abT := (aex*beytail + bey*aextail) - (aey*bextail + bex*aeytail)
	bcT := (bex*ceytail + cey*bextail) - (bey*cextail + cex*beytail)
	cdT := (cex*deytail + dey*cextail) - (cey*dextail + dex*ceytail)
	daT := (dex*aeytail + aey*dextail) - (dey*aextail + aex*deytail)
	acT := (aex*ceytail + cey*aextail) - (aey*cextail + cex*aeytail)
	bdT := (bex*deytail + dey*bextail) - (bey*dextail + dex*beytail)
	abcF := aez*bcF - bez*acF + cez*abF
	bcdF := bez*cdF - cez*bdF + dez*bcF
	cdaF := cez*daF + dez*acF + aez*cdF
	dabF := dez*abF + aez*bdF + bez*daF
	abcT := (aeztail*bcF + aez*bcT) - (beztail*acF + bez*acT) + (ceztail*abF + cez*abT)
	bcdT := (beztail*cdF + bez*cdT) - (ceztail*bdF + cez*bdT) + (deztail*bcF + dez*bcT)
	cdaT := (ceztail*daF + cez*daT) + (deztail*acF + dez*acT) + (aeztail*cdF + aez*cdT)
	dabT := (deztail*abF + dez*abT) + (aeztail*bdF + aez*bdT) + (beztail*daF + bez*daT)
	laF := aex*aex + aey*aey + aez*aez
	lbF := bex*bex + bey*bey + bez*bez
	lcF := cex*cex + cey*cey + cez*cez
	ldF := dex*dex + dey*dey + dez*dez
	laT := 2 * (aex*aextail + aey*aeytail + aez*aeztail)
	lbT := 2 * (bex*bextail + bey*beytail + bez*beztail)
	lcT := 2 * (cex*cextail + cey*ceytail + cez*ceztail)
	ldT := 2 * (dex*dextail + dey*deytail + dez*deztail)
	det += (ldT*abcF + ldF*abcT) - (lcT*dabF + lcF*dabT) +
		(lbT*cdaF + lbF*cdaT) - (laT*bcdF + laF*bcdT)
	if det >= errbound || -det >= errbound {
		return -sgn(det)
	}
	return inSphereExactExp(a, b, c, d, e)
}

// inSphereExactExp computes the exact sign over the untranslated inputs:
// the 5x5 determinant with rows (p, |p|^2, 1), expanded along the lifted
// column as sum lift_p * K_p with
//
//	K_a =  T(cde) - T(bde) + T(bce) - T(bcd)
//	K_b = -T(cde) + T(ade) - T(ace) + T(acd)
//	K_c =  T(bde) - T(ade) + T(abe) - T(abd)
//	K_d = -T(bce) + T(ace) - T(abe) + T(abc)
//	K_e =  T(bcd) - T(acd) + T(abd) - T(abc)
//
// where T(u,v,w) = z_u*vw - z_v*uw + z_w*uv over the pairwise xy
// determinants. The 5x5 equals the filter's translated 4x4 (rows p-e with
// lifted last column), so the sign is negated to match the InSphere
// convention (+1 = inside).
func inSphereExactExp(a, b, c, d, e Vec3) int {
	DeepExactCalls.Add(1)
	var ab, ac, ad, ae, bc, bd, be, cd, ce, de [4]float64
	nab := prodDiff(a.X, b.Y, b.X, a.Y, ab[:])
	nac := prodDiff(a.X, c.Y, c.X, a.Y, ac[:])
	nad := prodDiff(a.X, d.Y, d.X, a.Y, ad[:])
	nae := prodDiff(a.X, e.Y, e.X, a.Y, ae[:])
	nbc := prodDiff(b.X, c.Y, c.X, b.Y, bc[:])
	nbd := prodDiff(b.X, d.Y, d.X, b.Y, bd[:])
	nbe := prodDiff(b.X, e.Y, e.X, b.Y, be[:])
	ncd := prodDiff(c.X, d.Y, d.X, c.Y, cd[:])
	nce := prodDiff(c.X, e.Y, e.X, c.Y, ce[:])
	nde := prodDiff(d.X, e.Y, e.X, d.Y, de[:])

	var tabc, tabd, tabe, tacd, tace, tade, tbcd, tbce, tbde, tcde [24]float64
	ntabc := scale3(bc[:nbc], a.Z, ac[:nac], -b.Z, ab[:nab], c.Z, tabc[:])
	ntabd := scale3(bd[:nbd], a.Z, ad[:nad], -b.Z, ab[:nab], d.Z, tabd[:])
	ntabe := scale3(be[:nbe], a.Z, ae[:nae], -b.Z, ab[:nab], e.Z, tabe[:])
	ntacd := scale3(cd[:ncd], a.Z, ad[:nad], -c.Z, ac[:nac], d.Z, tacd[:])
	ntace := scale3(ce[:nce], a.Z, ae[:nae], -c.Z, ac[:nac], e.Z, tace[:])
	ntade := scale3(de[:nde], a.Z, ae[:nae], -d.Z, ad[:nad], e.Z, tade[:])
	ntbcd := scale3(cd[:ncd], b.Z, bd[:nbd], -c.Z, bc[:nbc], d.Z, tbcd[:])
	ntbce := scale3(ce[:nce], b.Z, be[:nbe], -c.Z, bc[:nbc], e.Z, tbce[:])
	ntbde := scale3(de[:nde], b.Z, be[:nbe], -d.Z, bd[:nbd], e.Z, tbde[:])
	ntcde := scale3(de[:nde], c.Z, ce[:nce], -d.Z, cd[:ncd], e.Z, tcde[:])

	var ka, kb, kc, kd, ke [96]float64
	nka := sum4Signed(tcde[:ntcde], 1, tbde[:ntbde], -1, tbce[:ntbce], 1, tbcd[:ntbcd], -1, ka[:])
	nkb := sum4Signed(tcde[:ntcde], -1, tade[:ntade], 1, tace[:ntace], -1, tacd[:ntacd], 1, kb[:])
	nkc := sum4Signed(tbde[:ntbde], 1, tade[:ntade], -1, tabe[:ntabe], 1, tabd[:ntabd], -1, kc[:])
	nkd := sum4Signed(tbce[:ntbce], -1, tace[:ntace], 1, tabe[:ntabe], -1, tabc[:ntabc], 1, kd[:])
	nke := sum4Signed(tbcd[:ntbcd], 1, tacd[:ntacd], -1, tabd[:ntabd], 1, tabc[:ntabc], -1, ke[:])

	var la, lb, lc, ld, le [6]float64
	nla := sumSquares3(a.X, a.Y, a.Z, la[:])
	nlb := sumSquares3(b.X, b.Y, b.Z, lb[:])
	nlc := sumSquares3(c.X, c.Y, c.Z, lc[:])
	nld := sumSquares3(d.X, d.Y, d.Z, ld[:])
	nle := sumSquares3(e.X, e.Y, e.Z, le[:])

	var term [192]float64
	var q1, q2 [1152]float64
	var r1, r2 [5760]float64
	p := mulExpansion(la[:nla], ka[:nka], term[:], q1[:], q2[:])
	rn := copy(r1[:], p)
	cur, nxt := r1[:], r2[:]
	p = mulExpansion(lb[:nlb], kb[:nkb], term[:], q1[:], q2[:])
	rn = fastExpansionSumZeroElim(cur[:rn], p, nxt)
	cur, nxt = nxt, cur
	p = mulExpansion(lc[:nlc], kc[:nkc], term[:], q1[:], q2[:])
	rn = fastExpansionSumZeroElim(cur[:rn], p, nxt)
	cur, nxt = nxt, cur
	p = mulExpansion(ld[:nld], kd[:nkd], term[:], q1[:], q2[:])
	rn = fastExpansionSumZeroElim(cur[:rn], p, nxt)
	cur, nxt = nxt, cur
	p = mulExpansion(le[:nle], ke[:nke], term[:], q1[:], q2[:])
	rn = fastExpansionSumZeroElim(cur[:rn], p, nxt)
	cur = nxt
	return -expSign(cur[:rn])
}
