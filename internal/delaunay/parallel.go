package delaunay

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"godtfe/internal/domain"
	"godtfe/internal/geom"
	"godtfe/internal/geomerr"
)

// Block-parallel Delaunay construction: domain-decomposed overlapping-block
// builds with exact ghost-zone stitching.
//
// The bounding box is split into K blocks (domain.NewDecomp, the same
// splitter the rank-level decomposition uses), each expanded by a ghost
// halo g. Every block triangulates its ghost volume's points with the
// serial builder, concurrently over a bounded worker pool. Because the
// symbolic perturbation (perturb.go) makes the Delaunay triangulation of a
// point set canonically unique, a block tet is either exactly a tet of the
// global triangulation or exactly not — there is no "close enough" — so
// stitching is a certification problem, not a re-triangulation problem:
//
//  1. ACCEPT a block tet whose (conservatively inflated) circumball,
//     clipped to the global box, fits inside the block's ghost volume: no
//     non-local point can invade it, so it is globally Delaunay.
//  2. VERIFY a crossing tet against the global point set with exact
//     predicates: a uniform-grid ball query collects every point inside the
//     inflated circumball and geom.InSphere / inSpherePerturbed decide
//     membership exactly. Pass ⇒ globally Delaunay; fail ⇒ the tet is a
//     ghost artifact and is dropped.
//  3. Everything the first two steps could not settle funnels into a
//     FRONTIER point set F: vertices (restricted to the block that OWNS
//     them) of dropped or gate-failed tets, local hull vertices whose hull
//     facet is not certifiably global, and all owned points of a failed
//     block. A missing global tet must have all four vertices in F (see
//     the completeness argument in DESIGN.md §12), so one serial repair
//     build over F — each repair tet exactly verified like step 2 —
//     recovers exactly the missing tets. F is tiny in practice: global
//     hull vertices not on exact box faces, plus sliver stragglers.
//
// The union of accepted tets is assembled into a Triangulation (faces
// matched on packed vertex triples, unmatched faces closed by fresh
// infinite tets) and normalized by the same compact() pass the serial
// builder runs, so the result is deeply equal to New's — same tet pool,
// same slot orders, same vertTet anchors — which the differential tests
// assert wholesale.
//
// Every structural self-check failure (odd face matching, an uncovered
// vertex, a finite/hull volume mismatch, an unverifiable sliver in the
// repair set) abandons the parallel path and falls back to the serial
// builder, so NewParallel can never be less correct than New, only
// faster.
//
// Concurrency audit (the "scratch state" satellite): all builder scratch —
// mark/epoch/cavity/border/stack/faceTab/cmark/cval/rng — lives on the
// Triangulation struct, one per block build, and perturb.go is pure
// coordinate arithmetic with no package state. The only package-level
// state touched by concurrent builds is geom.ExactCalls/DeepExactCalls
// (atomic counters) and the geom oracle-fallback flag (read-only here), so
// block builds share nothing mutable. `go test -race ./internal/delaunay`
// runs the differential and chaos tests concurrently to enforce this.

// BuildOptions configures NewWithOptions.
type BuildOptions struct {
	// Parallelism is the number of concurrent block builds. <= 1 builds
	// serially unless Blocks forces the block path.
	Parallelism int
	// Blocks is the number of decomposition blocks. 0 derives it from
	// Parallelism (one block per worker, capped so blocks keep a useful
	// number of points). Set explicitly in tests to pin the decomposition.
	Blocks int
	// GhostSpacings is the ghost-halo width in units of the mean
	// interparticle spacing (cbrt(boxVolume/n)). 0 means 2.0. Purely a
	// performance knob: correctness never depends on the halo being wide
	// enough, only repair-set size does.
	GhostSpacings float64
	// MinParallel is the point count below which the serial builder is
	// used directly. 0 means 4096; negative disables the threshold.
	MinParallel int
}

// NewParallel builds the Delaunay triangulation of pts using `workers`
// concurrent block builds. The mesh is deeply equal to New(pts)'s — same
// canonical tet pool, same adjacency, same anchors — at a fraction of the
// wall time on multi-core machines. Inputs below a size threshold, and any
// input the block pipeline cannot certify end-to-end, are built serially.
func NewParallel(pts []geom.Vec3, workers int) (*Triangulation, error) {
	return NewWithOptions(pts, BuildOptions{Parallelism: workers})
}

// NewWithOptions builds the Delaunay triangulation of pts with explicit
// block-decomposition options. See NewParallel.
func NewWithOptions(pts []geom.Vec3, opt BuildOptions) (*Triangulation, error) {
	minPar := opt.MinParallel
	if minPar == 0 {
		minPar = 4096
	}
	if (opt.Parallelism <= 1 && opt.Blocks == 0) || len(pts) < minPar {
		return New(pts)
	}
	parStats.builds.Add(1)
	t, err := buildParallel(pts, opt)
	if errors.Is(err, errParallelFallback) {
		parStats.fallbacks.Add(1)
		return New(pts)
	}
	return t, err
}

// errParallelFallback is the internal signal that the block pipeline could
// not certify the build and the serial builder must be used. It never
// escapes to callers.
var errParallelFallback = errors.New("delaunay: parallel build fell back to serial")

// ParallelStats is process-wide telemetry for the block pipeline,
// accumulated atomically across (possibly concurrent) parallel builds.
// The differential tests use it to prove the block path really ran
// instead of silently falling back, and benchmark reports surface it to
// show how much of the mesh each certification tier settled.
type ParallelStats struct {
	Builds        uint64 // block-pipeline attempts (past the size threshold)
	Fallbacks     uint64 // attempts that fell back to the serial builder
	BlockAccepted uint64 // tets certified inside block builds (ball or exact)
	RepairTets    uint64 // missing tets recovered by the frontier repair
	FrontierPts   uint64 // frontier points across all builds
}

var parStats struct {
	builds, fallbacks, blockAccepted, repairTets, frontierPts atomic.Uint64
}

// ReadParallelStats returns a snapshot of the cumulative block-pipeline
// telemetry.
func ReadParallelStats() ParallelStats {
	return ParallelStats{
		Builds:        parStats.builds.Load(),
		Fallbacks:     parStats.fallbacks.Load(),
		BlockAccepted: parStats.blockAccepted.Load(),
		RepairTets:    parStats.repairTets.Load(),
		FrontierPts:   parStats.frontierPts.Load(),
	}
}

// maxParallelPoints bounds the block path: face keys pack three vertex ids
// at 21 bits each into a uint64.
const maxParallelPoints = 1 << 21

// Certification gates (see DESIGN.md §12 for the error analysis):
// tets flatter than sliverVolGate (volume relative to maxEdge³) or whose
// circumcenter solve leaves residuals above residualGate are pushed to the
// frontier instead of trusting their floating-point circumball; surviving
// balls are inflated by ballInflation before containment tests and grid
// queries, orders of magnitude above the worst-case center error the gates
// permit.
const (
	sliverVolGate = 1e-6
	residualGate  = 1e-7
	ballInflation = 1e-6
)

type tetQuad = [4]int32

// blockResult is one block's contribution to the merge.
type blockResult struct {
	accepted []tetQuad // certified global tets, canonical slot order
	frontier []int32   // owned points whose owner-star is not fully settled
	failed   bool      // block build failed; all owned points are frontier
	build    BuildStats
}

func buildParallel(pts []geom.Vec3, opt BuildOptions) (*Triangulation, error) {
	if len(pts) < 4 {
		return nil, geomerr.Degenerate("delaunay.New", "need at least 4 points, got %d", len(pts))
	}
	if len(pts) >= maxParallelPoints {
		return nil, fmt.Errorf("%w: input too large for packed face keys", errParallelFallback)
	}
	// Same up-front finiteness contract as the serial builder.
	for i, p := range pts {
		if !p.IsFinite() {
			return nil, fmt.Errorf("delaunay.New: %w: %w",
				geomerr.ErrDegenerateInput,
				&geomerr.BadParticleError{Index: i, Reason: fmt.Sprintf("non-finite coordinate %v", p)})
		}
	}

	// Global duplicate merge. The first occurrence (lowest index) becomes
	// canonical, matching the serial builder's tie-break (space-filling
	// orders break key ties by ascending index, so the lowest duplicate is
	// always inserted first).
	dupOf := make([]int32, len(pts))
	canonIdx := make([]int32, 0, len(pts))
	seen := make(map[geom.Vec3]int32, len(pts))
	for i, p := range pts {
		if j, ok := seen[p]; ok {
			dupOf[i] = j
		} else {
			seen[p] = int32(i)
			dupOf[i] = int32(i)
			canonIdx = append(canonIdx, int32(i))
		}
	}
	if len(canonIdx) < 4 {
		return nil, fmt.Errorf("%w: fewer than 4 canonical points", errParallelFallback)
	}

	box := geom.BoundsOf(pts)
	sz := box.Size()
	vol := sz.X * sz.Y * sz.Z
	if vol <= 0 || math.IsInf(vol, 0) {
		return nil, fmt.Errorf("%w: flat or non-finite bounding volume", errParallelFallback)
	}
	spacing := math.Cbrt(vol / float64(len(canonIdx)))
	ghostSpacings := opt.GhostSpacings
	if ghostSpacings == 0 {
		ghostSpacings = 2.0
	}
	ghost := ghostSpacings * spacing

	blocks := opt.Blocks
	if blocks == 0 {
		blocks = opt.Parallelism
		if most := len(canonIdx) / 512; blocks > most {
			blocks = most
		}
	}
	if blocks > 64 {
		blocks = 64 // owner fits int8; more blocks than cores never helps
	}
	if blocks < 1 {
		blocks = 1
	}
	d, err := domain.NewDecomp(box, blocks, ghost)
	if err != nil {
		return nil, fmt.Errorf("%w: decomposition failed", errParallelFallback)
	}
	K := d.NumRanks()

	// Scatter canonical points to every block whose ghost volume contains
	// them, and record each point's owner block.
	owner := make([]int8, len(pts))
	blockPts := make([][]int32, K)
	for _, i := range canonIdx {
		p := pts[i]
		owner[i] = int8(d.OwnerOf(p))
		for _, r := range d.GhostRanksOf(p) {
			blockPts[r] = append(blockPts[r], i)
		}
	}

	grid := newPointGrid(pts, canonIdx, box, spacing)

	// Concurrent block builds over a bounded worker pool.
	results := make([]*blockResult, K)
	workers := opt.Parallelism
	if workers < 1 {
		workers = 1
	}
	if workers > K {
		workers = K
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range work {
				results[b] = runBlock(b, d, pts, blockPts[b], owner, grid, box)
			}
		}()
	}
	for b := 0; b < K; b++ {
		work <- b
	}
	close(work)
	wg.Wait()

	// Merge: dedupe accepted tets across blocks (overlap zones emit the
	// same tet from several blocks), union the frontier. Block order is
	// fixed, so the merge is deterministic.
	inFrontier := make([]bool, len(pts))
	acceptedSet := make(map[tetQuad]struct{}, 8*len(canonIdx))
	var accepted []tetQuad
	var build BuildStats // every insert loop that ran for this mesh
	for b := 0; b < K; b++ {
		res := results[b]
		build.Add(res.build)
		if res.failed {
			for _, i := range canonIdx {
				if owner[i] == int8(b) {
					inFrontier[i] = true
				}
			}
		}
		for _, q := range res.accepted {
			sq := q
			sort4(&sq)
			if _, dup := acceptedSet[sq]; !dup {
				acceptedSet[sq] = struct{}{}
				accepted = append(accepted, q)
			}
		}
		for _, v := range res.frontier {
			inFrontier[v] = true
		}
	}

	// Serial repair over the frontier. A missing global tet has all four
	// vertices in F, hence appears in DT(F) (its circumball is empty of
	// the full point set, a fortiori of F); exact verification separates
	// those from F-spanning artifacts. Fewer than four frontier points (or
	// a degenerate F) means no tet could be missing at all.
	var frontier []int32
	for _, i := range canonIdx {
		if inFrontier[i] {
			frontier = append(frontier, i)
		}
	}
	parStats.blockAccepted.Add(uint64(len(accepted)))
	parStats.frontierPts.Add(uint64(len(frontier)))
	blockAccepted := len(accepted)
	if len(frontier) >= 4 {
		fpts := make([]geom.Vec3, len(frontier))
		for i, gi := range frontier {
			fpts[i] = pts[gi]
		}
		rt, err := buildRaw(fpts, true)
		switch {
		case err == nil:
			build.Add(rt.build)
			for ti := range rt.tets {
				if rt.dead[ti] {
					continue
				}
				tt := &rt.tets[ti]
				if tt.InfSlot() >= 0 {
					continue
				}
				var q tetQuad
				for k := 0; k < 4; k++ {
					q[k] = frontier[tt.V[k]]
				}
				canonicalizeQuad(&q)
				sq := q
				sort4(&sq)
				if _, dup := acceptedSet[sq]; dup {
					continue
				}
				a, b2, c, e := pts[q[0]], pts[q[1]], pts[q[2]], pts[q[3]]
				var pass, hardErr bool
				if ctr, r, ok := certifyBall(a, b2, c, e); ok {
					pass, hardErr = verifyTet(pts, grid, a, b2, c, e, q, ctr, r)
				} else {
					// Gate-failed repair tets (hull-spanning slivers of
					// DT(F), mostly) have no trustworthy floating-point
					// circumball, but they don't need one: verify against
					// every canonical point with exact predicates. Artifact
					// slivers have huge circumballs and meet an invading
					// point almost immediately, so the scan early-exits.
					pass, hardErr = verifyTetExhaustive(pts, canonIdx, a, b2, c, e, q)
				}
				if hardErr {
					return nil, fmt.Errorf("%w: exact predicate failure in repair verification", errParallelFallback)
				}
				if pass {
					acceptedSet[sq] = struct{}{}
					accepted = append(accepted, q)
				}
			}
		case errors.Is(err, geomerr.ErrDegenerateInput):
			// Coplanar/collinear frontier: a missing tet would need four
			// affinely independent frontier vertices, so none exist.
		default:
			return nil, fmt.Errorf("%w: frontier repair build failed", errParallelFallback)
		}
	}
	parStats.repairTets.Add(uint64(len(accepted) - blockAccepted))

	t, err := assemble(pts, dupOf, canonIdx, accepted, box)
	if err != nil {
		return nil, err
	}
	t.build = build
	return t, nil
}

// runBlock triangulates one block's ghost-volume points and certifies each
// finite tet against the global point set. It never fails the whole build:
// anything uncertifiable lands in the frontier.
func runBlock(b int, d domain.Decomp, pts []geom.Vec3, local []int32, owner []int8, grid *pointGrid, box geom.AABB) *blockResult {
	res := &blockResult{}
	if len(local) < 4 {
		res.failed = true
		return res
	}
	lpts := make([]geom.Vec3, len(local))
	for i, gi := range local {
		lpts[i] = pts[gi]
	}
	tri, err := buildRaw(lpts, true)
	if err != nil {
		res.failed = true
		return res
	}
	res.build = tri.build

	gv := d.GhostVolume(b)
	ownedHere := func(gi int32) bool { return owner[gi] == int8(b) }
	frontierMark := make([]bool, len(local)) // by local index, dedupes adds
	addFrontier := func(li int32) {
		if !frontierMark[li] && ownedHere(local[li]) {
			frontierMark[li] = true
			res.frontier = append(res.frontier, local[li])
		}
	}

	for ti := range tri.tets {
		if tri.dead[ti] {
			continue
		}
		tt := &tri.tets[ti]
		if s := tt.InfSlot(); s >= 0 {
			// Hull facet certification: a local hull vertex is settled
			// only if every incident local hull facet is certifiably a
			// global hull facet. The exact certificate: all three facet
			// vertices lie exactly on a common global bounding-box face,
			// so no global point can be strictly beyond the facet plane.
			ft := faceTable[s]
			a, b2, c := tt.V[ft[0]], tt.V[ft[1]], tt.V[ft[2]]
			if !onCommonBoxFace(lpts[a], lpts[b2], lpts[c], box) {
				addFrontier(a)
				addFrontier(b2)
				addFrontier(c)
			}
			continue
		}
		var q tetQuad
		for k := 0; k < 4; k++ {
			q[k] = local[tt.V[k]]
		}
		canonicalizeQuad(&q)
		a, b2, c, e := pts[q[0]], pts[q[1]], pts[q[2]], pts[q[3]]
		ctr, r, ok := certifyBall(a, b2, c, e)
		accept := false
		if ok {
			if ballInsideGhost(ctr, r, gv, box) {
				// No non-local point can reach the circumball: the tet's
				// local emptiness is global emptiness.
				accept = true
			} else if pass, hardErr := verifyTet(pts, grid, a, b2, c, e, q, ctr, r); pass && !hardErr {
				accept = true
			}
		}
		if accept {
			res.accepted = append(res.accepted, q)
		} else {
			for k := 0; k < 4; k++ {
				addFrontier(tt.V[k])
			}
		}
	}
	return res
}

// canonicalizeQuad rewrites a positively-oriented vertex quadruple into
// canonical slot order (the lexicographically smallest even permutation,
// same as canonicalize in compact.go but without neighbor slots).
func canonicalizeQuad(q *tetQuad) {
	t := Tet{V: *q}
	canonicalize(&t)
	*q = t.V
}

func sort4(q *tetQuad) {
	if q[0] > q[1] {
		q[0], q[1] = q[1], q[0]
	}
	if q[2] > q[3] {
		q[2], q[3] = q[3], q[2]
	}
	if q[0] > q[2] {
		q[0], q[2] = q[2], q[0]
	}
	if q[1] > q[3] {
		q[1], q[3] = q[3], q[1]
	}
	if q[1] > q[2] {
		q[1], q[2] = q[2], q[1]
	}
}

// onCommonBoxFace reports whether a, b, c all lie exactly on the same face
// plane of box (exact float64 equality; lattice and snapped catalogs hit
// this, which is what keeps their frontier sets from swallowing the whole
// hull shell).
func onCommonBoxFace(a, b, c geom.Vec3, box geom.AABB) bool {
	switch {
	case a.X == box.Min.X && b.X == box.Min.X && c.X == box.Min.X:
		return true
	case a.X == box.Max.X && b.X == box.Max.X && c.X == box.Max.X:
		return true
	case a.Y == box.Min.Y && b.Y == box.Min.Y && c.Y == box.Min.Y:
		return true
	case a.Y == box.Max.Y && b.Y == box.Max.Y && c.Y == box.Max.Y:
		return true
	case a.Z == box.Min.Z && b.Z == box.Min.Z && c.Z == box.Min.Z:
		return true
	case a.Z == box.Max.Z && b.Z == box.Max.Z && c.Z == box.Max.Z:
		return true
	}
	return false
}

// certifyBall computes a conservatively inflated circumball of the
// positively-oriented tet (p0,p1,p2,p3), or ok=false if the tet is too
// ill-conditioned for the floating-point ball to be trusted (sliver or
// residual gate; such tets go to the frontier / trigger serial fallback).
func certifyBall(p0, p1, p2, p3 geom.Vec3) (ctr geom.Vec3, r float64, ok bool) {
	e1, e2, e3 := p1.Sub(p0), p2.Sub(p0), p3.Sub(p0)
	maxE2 := e1.Norm2()
	if n := e2.Norm2(); n > maxE2 {
		maxE2 = n
	}
	if n := e3.Norm2(); n > maxE2 {
		maxE2 = n
	}
	if n := p2.Sub(p1).Norm2(); n > maxE2 {
		maxE2 = n
	}
	if n := p3.Sub(p1).Norm2(); n > maxE2 {
		maxE2 = n
	}
	if n := p3.Sub(p2).Norm2(); n > maxE2 {
		maxE2 = n
	}
	maxEdge := math.Sqrt(maxE2)
	vol := geom.TetVolume(p0, p1, p2, p3) // positive by orientation
	if !(vol > sliverVolGate*maxEdge*maxEdge*maxEdge) {
		return geom.Vec3{}, 0, false
	}
	x, solved := geom.Solve3(e1, e2, e3,
		geom.Vec3{X: e1.Norm2() / 2, Y: e2.Norm2() / 2, Z: e3.Norm2() / 2})
	if !solved {
		return geom.Vec3{}, 0, false
	}
	ctr = p0.Add(x)
	d0 := x.Norm()
	dmin, dmax := d0, d0
	for _, p := range [3]geom.Vec3{p1, p2, p3} {
		di := p.Sub(ctr).Norm()
		if di < dmin {
			dmin = di
		}
		if di > dmax {
			dmax = di
		}
	}
	if dmax-dmin > residualGate*(dmax+maxEdge) {
		return geom.Vec3{}, 0, false
	}
	r = dmax + ballInflation*(dmax+maxEdge)
	return ctr, r, true
}

// ballInsideGhost reports whether the ball (ctr, r), clipped to the global
// box, is contained in the ghost volume gv. Ghost faces clamped at the box
// boundary impose no constraint — there are no points beyond them — which
// is what lets global-hull-adjacent tets certify by containment.
func ballInsideGhost(ctr geom.Vec3, r float64, gv, box geom.AABB) bool {
	if gv.Min.X > box.Min.X && ctr.X-r < gv.Min.X {
		return false
	}
	if gv.Max.X < box.Max.X && ctr.X+r > gv.Max.X {
		return false
	}
	if gv.Min.Y > box.Min.Y && ctr.Y-r < gv.Min.Y {
		return false
	}
	if gv.Max.Y < box.Max.Y && ctr.Y+r > gv.Max.Y {
		return false
	}
	if gv.Min.Z > box.Min.Z && ctr.Z-r < gv.Min.Z {
		return false
	}
	if gv.Max.Z < box.Max.Z && ctr.Z+r > gv.Max.Z {
		return false
	}
	return true
}

// verifyTet decides exactly whether the positively-oriented tet
// (a,b,c,e) = pts[ids] is globally Delaunay: no canonical point other than
// its vertices lies (strictly or by symbolic perturbation) inside its
// circumball. The grid query over the inflated ball (ctr, r) is a superset
// of the true ball, so the exact predicates see every possible invader.
// hardErr reports a predicate contract violation (never expected; the
// caller falls back to the serial builder).
func verifyTet(pts []geom.Vec3, grid *pointGrid, a, b, c, e geom.Vec3, ids tetQuad, ctr geom.Vec3, r float64) (pass, hardErr bool) {
	r2 := r * r
	check := func(gi int32) (invaded, bad bool) {
		if gi == ids[0] || gi == ids[1] || gi == ids[2] || gi == ids[3] {
			return false, false
		}
		q := pts[gi]
		if q.Sub(ctr).Norm2() > r2 {
			return false, false
		}
		s := geom.InSphere(a, b, c, e, q)
		if s > 0 {
			return true, false
		}
		if s == 0 {
			sp, err := inSpherePerturbed(a, b, c, e, q)
			if err != nil {
				return false, true
			}
			if sp > 0 {
				return true, false
			}
		}
		return false, false
	}
	// Scan the cell under the ball center first: a bogus F-spanning repair
	// tet over a populated region rejects after one cell instead of a full
	// ball sweep.
	ccell, cok := grid.cellOf(ctr)
	if cok {
		for _, gi := range grid.cell(ccell) {
			if invaded, bad := check(gi); invaded || bad {
				return false, bad
			}
		}
	}
	lo, hi, any := grid.cellRange(ctr, r)
	if !any {
		return true, false
	}
	for cz := lo[2]; cz <= hi[2]; cz++ {
		for cy := lo[1]; cy <= hi[1]; cy++ {
			for cx := lo[0]; cx <= hi[0]; cx++ {
				ci := grid.index(cx, cy, cz)
				if cok && ci == ccell {
					continue
				}
				for _, gi := range grid.cell(ci) {
					if invaded, bad := check(gi); invaded || bad {
						return false, bad
					}
				}
			}
		}
	}
	return true, false
}

// verifyTetExhaustive is verifyTet without the circumball prune: it runs
// the exact in-sphere test for the tet (a,b,c,e) = pts[ids] against every
// canonical point. Used for repair tets whose floating-point circumball
// failed the certification gates — correctness needs no ball here, only
// the exact predicates, at O(n) filtered-predicate cost per tet.
func verifyTetExhaustive(pts []geom.Vec3, canonIdx []int32, a, b, c, e geom.Vec3, ids tetQuad) (pass, hardErr bool) {
	for _, gi := range canonIdx {
		if gi == ids[0] || gi == ids[1] || gi == ids[2] || gi == ids[3] {
			continue
		}
		s := geom.InSphere(a, b, c, e, pts[gi])
		if s > 0 {
			return false, false
		}
		if s == 0 {
			sp, err := inSpherePerturbed(a, b, c, e, pts[gi])
			if err != nil {
				return false, true
			}
			if sp > 0 {
				return false, false
			}
		}
	}
	return true, false
}

// assemble builds a full Triangulation from the certified global tet set:
// neighbor matching on packed face keys, fresh infinite tets over unmatched
// (hull) faces, then the shared compact() normalization. Structural
// self-checks (a face shared by more than two tets, an uncovered canonical
// vertex, finite volume disagreeing with hull volume) abort to the serial
// fallback.
func assemble(pts []geom.Vec3, dupOf []int32, canonIdx []int32, accepted []tetQuad, box geom.AABB) (*Triangulation, error) {
	nt := len(accepted)
	if nt == 0 {
		return nil, fmt.Errorf("%w: tet count exceeds packed face-key capacity", errParallelFallback)
	}
	t := &Triangulation{
		pts:           pts,
		tets:          make([]Tet, nt, nt+nt/4),
		dead:          make([]bool, nt, nt+nt/4),
		vertTet:       make([]int32, len(pts)),
		dupOf:         dupOf,
		rng:           0x9e3779b97f4a7c15,
		insertedCount: len(canonIdx),
	}
	for i := range t.vertTet {
		t.vertTet[i] = NoTet
	}
	for i, q := range accepted {
		t.tets[i] = Tet{V: q, N: [4]int32{NoTet, NoTet, NoTet, NoTet}}
	}

	// Face matching: sorted vertex triples packed at 21 bits per id into a
	// uint64 key over a flat open-addressing table.
	tabSize := 16
	for tabSize < 8*nt {
		tabSize <<= 1
	}
	keys := make([]uint64, tabSize)
	refs := make([]faceRef, tabSize)
	mask := uint64(tabSize - 1)
	const consumed = int32(-2)
	for ti := 0; ti < nt; ti++ {
		tv := &t.tets[ti].V
		for f := 0; f < 4; f++ {
			ft := faceTable[f]
			k := [3]int32{tv[ft[0]], tv[ft[1]], tv[ft[2]]}
			sort3(&k[0], &k[1], &k[2])
			key := uint64(k[0])<<42 | uint64(k[1])<<21 | uint64(k[2])
			i := (key * 0x9e3779b97f4a7c15) >> 32 & mask
			for {
				if keys[i] == 0 {
					keys[i] = key
					refs[i] = faceRef{tet: int32(ti), face: int32(f)}
					break
				}
				if keys[i] == key {
					if refs[i].tet == consumed {
						return nil, fmt.Errorf("%w: face shared by three tets", errParallelFallback)
					}
					t.tets[ti].N[f] = refs[i].tet
					t.tets[refs[i].tet].N[refs[i].face] = int32(ti)
					refs[i].tet = consumed
					break
				}
				i = (i + 1) & mask
			}
		}
	}

	// Close unmatched faces with infinite tets, accumulating the hull
	// volume for the global volume self-check. (Inf, w0, w2, w1) mirrors
	// initFirstTet's symbolic orientation convention.
	var finVol, finAbs, hullVol, hullAbs float64
	for ti := 0; ti < nt; ti++ {
		tv := t.tets[ti].V
		v := geom.TetVolume(pts[tv[0]], pts[tv[1]], pts[tv[2]], pts[tv[3]])
		finVol += v
		finAbs += math.Abs(v)
		for f := 0; f < 4; f++ {
			if t.tets[ti].N[f] != NoTet {
				continue
			}
			ft := faceTable[f]
			w0, w1, w2 := tv[ft[0]], tv[ft[1]], tv[ft[2]]
			inf := int32(len(t.tets))
			t.tets = append(t.tets, Tet{
				V: [4]int32{Inf, w0, w2, w1},
				N: [4]int32{int32(ti), NoTet, NoTet, NoTet},
			})
			t.dead = append(t.dead, false)
			t.tets[ti].N[f] = inf
			// Outward face (w0,w1,w2): signed cone volume to the origin.
			hv := pts[w0].Dot(pts[w1].Cross(pts[w2])) / 6.0
			hullVol += hv
			hullAbs += math.Abs(hv)
		}
	}
	// The finite tets partition the convex hull exactly, so the two signed
	// volumes agree up to accumulation error; a gap means a missing or
	// overlapping tet survived certification.
	if math.Abs(finVol-hullVol) > 1e-7*(finAbs+hullAbs) {
		return nil, fmt.Errorf("%w: finite/hull volume mismatch", errParallelFallback)
	}

	// Link infinite tets to each other along their (Inf, edge) faces.
	infFaces := make(map[uint64]faceRef, 4*(len(t.tets)-nt))
	for ti := nt; ti < len(t.tets); ti++ {
		for f := 1; f < 4; f++ {
			ft := faceTable[f]
			var e0, e1 int32
			got := 0
			for _, s := range ft {
				if v := t.tets[ti].V[s]; v != Inf {
					if got == 0 {
						e0 = v
					} else {
						e1 = v
					}
					got++
				}
			}
			if got != 2 {
				return nil, fmt.Errorf("%w: duplicate hull face", errParallelFallback)
			}
			if e0 > e1 {
				e0, e1 = e1, e0
			}
			key := uint64(e0)<<21 | uint64(e1) | 1<<63
			if prev, ok := infFaces[key]; ok {
				t.tets[ti].N[f] = prev.tet
				t.tets[prev.tet].N[prev.face] = int32(ti)
				delete(infFaces, key)
			} else {
				infFaces[key] = faceRef{tet: int32(ti), face: int32(f)}
			}
		}
	}
	if len(infFaces) != 0 {
		return nil, fmt.Errorf("%w: hull surface not closed", errParallelFallback)
	}
	for ti := range t.tets {
		for f := 0; f < 4; f++ {
			if t.tets[ti].N[f] == NoTet {
				return nil, fmt.Errorf("%w: missing neighbor link", errParallelFallback)
			}
		}
	}

	t.compact()
	for _, i := range canonIdx {
		if t.vertTet[i] == NoTet {
			return nil, fmt.Errorf("%w: canonical vertex covered by no tet", errParallelFallback)
		}
	}
	return t, nil
}

// pointGrid is a uniform bucket grid over the canonical points, used for
// the exact circumball emptiness queries. Cell size tracks the mean
// interparticle spacing, so a well-shaped tet's ball touches O(1) cells.
type pointGrid struct {
	box        geom.AABB
	nx, ny, nz int
	inv        geom.Vec3
	start      []int32
	items      []int32
}

func newPointGrid(pts []geom.Vec3, canonIdx []int32, box geom.AABB, spacing float64) *pointGrid {
	sz := box.Size()
	dim := func(extent float64) int {
		if spacing <= 0 || extent <= 0 {
			return 1
		}
		n := int(extent / spacing)
		if n < 1 {
			n = 1
		}
		if n > 1024 {
			n = 1024
		}
		return n
	}
	g := &pointGrid{box: box, nx: dim(sz.X), ny: dim(sz.Y), nz: dim(sz.Z)}
	safeInv := func(n int, extent float64) float64 {
		if extent <= 0 {
			return 0
		}
		return float64(n) / extent
	}
	g.inv = geom.Vec3{X: safeInv(g.nx, sz.X), Y: safeInv(g.ny, sz.Y), Z: safeInv(g.nz, sz.Z)}
	ncell := g.nx * g.ny * g.nz
	counts := make([]int32, ncell+1)
	cellIdx := make([]int32, len(canonIdx))
	for i, gi := range canonIdx {
		ci, _ := g.cellOf(pts[gi])
		cellIdx[i] = int32(ci)
		counts[ci+1]++
	}
	for c := 0; c < ncell; c++ {
		counts[c+1] += counts[c]
	}
	g.start = counts
	g.items = make([]int32, len(canonIdx))
	fill := make([]int32, ncell)
	for i, gi := range canonIdx {
		c := cellIdx[i]
		g.items[g.start[c]+fill[c]] = gi
		fill[c]++
	}
	return g
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// cellOf returns the cell index containing p; ok is false when p is
// outside the grid box (possible for inflated ball centers).
func (g *pointGrid) cellOf(p geom.Vec3) (int, bool) {
	cx := int((p.X - g.box.Min.X) * g.inv.X)
	cy := int((p.Y - g.box.Min.Y) * g.inv.Y)
	cz := int((p.Z - g.box.Min.Z) * g.inv.Z)
	ok := cx >= 0 && cx < g.nx && cy >= 0 && cy < g.ny && cz >= 0 && cz < g.nz
	cx = clampInt(cx, 0, g.nx-1)
	cy = clampInt(cy, 0, g.ny-1)
	cz = clampInt(cz, 0, g.nz-1)
	return g.index(cx, cy, cz), ok
}

func (g *pointGrid) index(cx, cy, cz int) int { return (cz*g.ny+cy)*g.nx + cx }

func (g *pointGrid) cell(ci int) []int32 { return g.items[g.start[ci]:g.start[ci+1]] }

// cellRange returns the inclusive cell bounds overlapped by the ball
// (ctr, r); any is false when the ball misses the grid box entirely.
func (g *pointGrid) cellRange(ctr geom.Vec3, r float64) (lo, hi [3]int, any bool) {
	if ctr.X+r < g.box.Min.X || ctr.X-r > g.box.Max.X ||
		ctr.Y+r < g.box.Min.Y || ctr.Y-r > g.box.Max.Y ||
		ctr.Z+r < g.box.Min.Z || ctr.Z-r > g.box.Max.Z {
		return lo, hi, false
	}
	lo[0] = clampInt(int((ctr.X-r-g.box.Min.X)*g.inv.X), 0, g.nx-1)
	hi[0] = clampInt(int((ctr.X+r-g.box.Min.X)*g.inv.X), 0, g.nx-1)
	lo[1] = clampInt(int((ctr.Y-r-g.box.Min.Y)*g.inv.Y), 0, g.ny-1)
	hi[1] = clampInt(int((ctr.Y+r-g.box.Min.Y)*g.inv.Y), 0, g.ny-1)
	lo[2] = clampInt(int((ctr.Z-r-g.box.Min.Z)*g.inv.Z), 0, g.nz-1)
	hi[2] = clampInt(int((ctr.Z+r-g.box.Min.Z)*g.inv.Z), 0, g.nz-1)
	return lo, hi, true
}
