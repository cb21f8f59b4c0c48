package render

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"godtfe/internal/delaunay"
	"godtfe/internal/geom"
	"godtfe/internal/grid"
)

// Marcher is the paper's surface-density kernel (Fig 3): for each 2D grid
// cell it marches the vertical line of sight ℓ through the tetrahedral
// mesh using Plücker-coordinate ray–tetrahedron intersection tests and
// accumulates, per pierced tetrahedron, the exact line integral of the
// linear DTFE density (eq 12): interpolate at the midpoint of the
// intersection interval and multiply by the chord length. No intermediate
// 3D grid is ever built, and the interpolation points are the
// mathematically optimal ones.
//
// The hot loop runs against an SoA snapshot of the mesh (see soaMesh) and
// every column's entry facet comes from the stateless bucket index (see
// entryIndex); the SoA view is an exact restructuring, so the rendered grid
// is bit-identical to the original pointer-chasing implementation. A
// Marcher holds a whole mesh (NewMarcher) or a slab of one
// (NewSlabMarcher), which marches the columns it was cut for bit for bit
// as the whole mesh does.
type Marcher struct {
	soa   soaMesh
	entry *entryIndex
	eps   float64 // perturbation magnitude for degenerate rays (Fig 2)
	// x0, x1 bound the x of the columns it marches: ±Inf for a whole mesh,
	// the slab's span for a slab.
	x0, x1 float64
	// maxSteps caps one march (marchSteps of the whole mesh, also in a
	// slab, so a cycle ends where the whole mesh's would).
	maxSteps int
}

// maxRetries bounds degeneracy-perturbation attempts per ladder.
const maxRetries = 16

// Render fills the spec's grid with surface density, running the column
// loop on `workers` goroutines, and returns per-worker stats.
func (m *Marcher) Render(spec Spec, workers int, sched Schedule) (*grid.Grid2D, []WorkerStat, error) {
	return m.RenderCtx(context.Background(), spec, workers, sched)
}

// RenderCtx is Render under a context: cancellation or deadline expiry
// aborts the column loop at the next column boundary (each worker checks a
// shared flag once per cell, so a cancelled render releases its workers
// within one cell's marches) and returns the context's error with a nil
// grid. An uncancelled RenderCtx is bit-identical to Render.
func (m *Marcher) RenderCtx(ctx context.Context, spec Spec, workers int, _ Schedule) (*grid.Grid2D, []WorkerStat, error) {
	if err := spec.Validate(false); err != nil {
		return nil, nil, err
	}
	out := spec.Grid()
	stats, err := m.march(ctx, spec, []Tile{{I0: 0, I1: spec.Nx}}, out, 0, workers)
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// RenderTileCtx renders one column-block tile of the spec's grid into a
// Width×Ny tile grid, with RenderCtx's cancellation semantics. Cell centers
// and Monte Carlo jitter are evaluated at the columns' global indices, so
// every cell of the tile is bit-identical to the same cell of a whole-grid
// Render — the invariant the distributed fan-out's stitch relies on.
func (m *Marcher) RenderTileCtx(ctx context.Context, spec Spec, t Tile, workers int) (*grid.Grid2D, []WorkerStat, error) {
	if err := spec.Validate(false); err != nil {
		return nil, nil, err
	}
	if err := t.Validate(&spec); err != nil {
		return nil, nil, err
	}
	out := spec.TileGrid(t)
	stats, err := m.march(ctx, spec, []Tile{t}, out, t.I0, workers)
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// RenderRunsCtx marches a set of disjoint, ascending column runs of the
// spec into dst, a full Nx×Ny grid for the spec whose column c holds
// global column c (unlike tile grids, which are re-based at the tile's
// first column). Columns outside the runs are left untouched, which is
// what lets a caller assemble a grid from cached columns plus marched
// runs. Each marched cell is bit-identical to the same cell of a
// whole-grid Render, by the same global-column-index invariant tile
// renders rely on. All runs share one worker fan-out; cancellation aborts
// at the next column boundary and returns the context's error (dst is
// then partial and must be discarded).
func (m *Marcher) RenderRunsCtx(ctx context.Context, spec Spec, runs []Tile, dst *grid.Grid2D, workers int) ([]WorkerStat, error) {
	if err := spec.Validate(false); err != nil {
		return nil, err
	}
	if dst.Nx != spec.Nx || dst.Ny != spec.Ny {
		return nil, fmt.Errorf("render: runs dst %dx%d does not match spec %dx%d", dst.Nx, dst.Ny, spec.Nx, spec.Ny)
	}
	prev := 0
	for _, r := range runs {
		if err := r.Validate(&spec); err != nil {
			return nil, err
		}
		if r.I0 < prev {
			return nil, fmt.Errorf("render: runs must be ascending and disjoint, run [%d,%d) after column %d", r.I0, r.I1, prev)
		}
		prev = r.I1
	}
	return m.march(ctx, spec, runs, dst, 0, workers)
}

// march runs the marching kernel over runs through sampleRuns, once they
// are checked to lie inside the Marcher's span. A column whose march
// needed a tet outside the slab fails the whole render with
// ErrOutsideSlab.
func (m *Marcher) march(ctx context.Context, spec Spec, runs []Tile, out *grid.Grid2D, outBase, workers int) ([]WorkerStat, error) {
	if n := len(runs); n > 0 {
		if x0, x1 := spec.colX(runs[0].I0), spec.colX(runs[n-1].I1); x0 < m.x0 || x1 > m.x1 {
			return nil, fmt.Errorf("%w: columns [%d,%d) span x [%g,%g], the slab [%g,%g]",
				ErrOutsideSlab, runs[0].I0, runs[n-1].I1, x0, x1, m.x0, m.x1)
		}
	}
	var outside atomic.Bool
	stats, err := sampleRuns(ctx, spec, runs, out, outBase, workers, m.rows(spec, &outside))
	if err == nil && outside.Load() {
		err = fmt.Errorf("%w: a column of [%d,%d) crossed its edge", ErrOutsideSlab, runs[0].I0, runs[len(runs)-1].I1)
	}
	return stats, err
}

// rows is the marching kernel's row function for sampleRuns: every line is
// one Column, its tets visited and its outcome noted in the worker's stats,
// and a line that left the slab flagged in outside. Columns are stateless,
// so every row shares one sampler.
func (m *Marcher) rows(spec Spec, outside *atomic.Bool) func(int) sampler {
	sample := func(xi geom.Vec2, st *WorkerStat) float64 {
		sigma, steps, outcome := m.Column(xi, spec.ZMin, spec.ZMax)
		if outcome == ColumnOutsideSlab {
			outside.Store(true)
		}
		st.Steps += int64(steps)
		st.Columns.Note(outcome)
		return sigma
	}
	return func(int) sampler { return sample }
}

// Column integrates the DTFE density along the vertical line through xi.
// When zmin < zmax the integral is clipped to that interval; otherwise the
// full hull chord is integrated. It returns the surface density, the
// number of tetrahedra visited, and how the march ended: clean, perturbed
// (Fig 2 retries), fallback (restarted with a second, larger perturbation
// ladder after the first ran out), abandoned (Σ is a partial lower bound
// and must be counted as lost flux, never reported silently), or outside
// the slab (Σ is NaN; only a slab Marcher ends a march so).
func (m *Marcher) Column(xi geom.Vec2, zmin, zmax float64) (float64, int, ColumnOutcome) {
	if !xi.IsFinite() {
		return 0, 0, ColumnAbandoned
	}
	sigma, steps, attempts, ok, outside := m.marchRetries(xi, zmin, zmax, 0)
	if outside {
		return math.NaN(), steps, ColumnOutsideSlab
	}
	if ok {
		if attempts == 0 {
			return sigma, steps, ColumnClean
		}
		return sigma, steps, ColumnPerturbed
	}
	// Watertight fallback: the perturbation ladder is exhausted. Restart
	// the march from ξ with a second ladder whose magnitudes start one
	// rung beyond the first, instead of returning the partial Σ from the
	// failed march.
	fsigma, fsteps, _, fok, outside := m.marchRetries(xi, zmin, zmax, maxRetries+1)
	steps += fsteps
	if outside {
		return math.NaN(), steps, ColumnOutsideSlab
	}
	if fok {
		return fsigma, steps, ColumnFallback
	}
	// Both ladders failed: report the larger partial integral (a lower
	// bound on the true Σ) and flag the column as abandoned so the lost
	// flux is accounted upstream.
	if fsigma > sigma {
		sigma = fsigma
	}
	return sigma, steps, ColumnAbandoned
}

// marchRetries runs the perturb-and-retry loop of the paper's Fig 2, the
// perturbation magnitudes starting at rung base, so the fallback ladder
// explores genuinely new line positions. A march that reaches a tet the
// slab does not carry ends the loop at once with outside set.
func (m *Marcher) marchRetries(xi geom.Vec2, zmin, zmax float64, base int) (sigma float64, steps int, attempts int, ok, outside bool) {
	for attempt := 0; ; attempt++ {
		s, n, badTet, ok := m.tryColumn(xi, zmin, zmax)
		steps += n
		sigma = s
		if ok {
			return sigma, steps, attempt, true, false
		}
		if badTet == outsideSlab {
			return sigma, steps, attempt, false, true
		}
		if attempt >= maxRetries {
			return sigma, steps, attempt, false, false
		}
		xi = m.perturb(xi, badTet, base+attempt)
	}
}

// perturb implements the paper's Perturb subroutine (Fig 2): move ξ toward
// the projection of a vertex of the degenerate tetrahedron by at most ε.
// tet is always finite (an entry facet's tet or a march step's), so its
// SoA record carries the triangulation's vertex slots.
func (m *Marcher) perturb(xi geom.Vec2, tet int32, attempt int) geom.Vec2 {
	eps := m.eps * float64(uint(1)<<uint(min(attempt, maxRung)))
	pts := m.soa.pts
	if tet >= 0 {
		tt := &m.soa.tets[tet]
		for k := 0; k < 4; k++ {
			v := tt.V[(k+attempt)&3]
			delta := pts[v].XY().Sub(xi)
			n := delta.Norm()
			if n == 0 {
				continue
			}
			if n > eps {
				delta = delta.Scale(eps / n)
			}
			return xi.Add(delta)
		}
	}
	// No usable vertex: fixed diagonal nudge.
	return xi.Add(geom.Vec2{X: eps, Y: eps * 0.7071067811865476})
}

// tryColumn marches once against the SoA mesh view. ok=false reports a
// Plücker degeneracy (the ray met an edge or vertex), returning the tet
// where it happened. The loop performs no allocations: all state is a
// fixed-size vertex buffer on the stack.
func (m *Marcher) tryColumn(xi geom.Vec2, zmin, zmax float64) (sigma float64, steps int, badTet int32, ok bool) {
	fi := m.entry.find(xi)
	if fi < 0 {
		return 0, 0, -1, true // line misses the hull: Σ = 0
	}
	f := &m.entry.faces[fi]
	clip := zmin < zmax
	ray := geom.PluckerFromRay(geom.Vec3{X: xi.X, Y: xi.Y, Z: 0}, geom.Vec3{Z: 1})

	zPrev, entryOK := crossZ(ray, f.a, f.b, f.c, +1)
	if !entryOK {
		return 0, 0, f.behind, false
	}
	tet := f.behind

	stets := m.soa.tets
	pts := m.soa.pts
	maxSteps := m.maxSteps
	xiX, xiY := xi.X, xi.Y
	for ; steps < maxSteps; steps++ {
		st := &stets[tet]
		p0 := pts[st.V[0]]
		p1 := pts[st.V[1]]
		p2 := pts[st.V[2]]
		p3 := pts[st.V[3]]
		// The six projected Plücker edge products (edgeSlots order),
		// expression-identical to exitVerticalVerts so the inlined fast
		// path below reproduces it bit for bit.
		s0 := (p1.X-p0.X)*(p0.Y-xiY) + (p1.Y-p0.Y)*(xiX-p0.X)
		s1 := (p2.X-p0.X)*(p0.Y-xiY) + (p2.Y-p0.Y)*(xiX-p0.X)
		s2 := (p3.X-p0.X)*(p0.Y-xiY) + (p3.Y-p0.Y)*(xiX-p0.X)
		s3 := (p2.X-p1.X)*(p1.Y-xiY) + (p2.Y-p1.Y)*(xiX-p1.X)
		s4 := (p3.X-p1.X)*(p1.Y-xiY) + (p3.Y-p1.Y)*(xiX-p1.X)
		s5 := (p3.X-p2.X)*(p2.Y-xiY) + (p3.Y-p2.Y)*(xiX-p2.X)

		var zExit float64
		var next int32
		if s0 != 0 && s1 != 0 && s2 != 0 && s3 != 0 && s4 != 0 && s5 != 0 {
			// Fast path: no exact zeros, so exitVerticalVerts's
			// simulation-of-simplicity tie-breaks and conservative bail-outs
			// can never fire; the exit face is the first (and only) face
			// whose three signed products are negative. Each branch fixes
			// the face, so w's, zExit, and the neighbor load are all
			// constant-indexed.
			switch {
			case s3 < 0 && s5 < 0 && s4 > 0: // face 0, verts {1,2,3}
				w0, w1, w2 := s3, s5, -s4
				zExit = (w1*p1.Z + w2*p2.Z + w0*p3.Z) / (w0 + w1 + w2)
				next = st.N[0]
			case s2 < 0 && s5 > 0 && s1 > 0: // face 1, verts {0,3,2}
				w0, w1, w2 := s2, -s5, -s1
				zExit = (w1*p0.Z + w2*p3.Z + w0*p2.Z) / (w0 + w1 + w2)
				next = st.N[1]
			case s0 < 0 && s4 < 0 && s2 > 0: // face 2, verts {0,1,3}
				w0, w1, w2 := s0, s4, -s2
				zExit = (w1*p0.Z + w2*p1.Z + w0*p3.Z) / (w0 + w1 + w2)
				next = st.N[2]
			case s1 < 0 && s3 > 0 && s0 > 0: // face 3, verts {0,2,1}
				w0, w1, w2 := s1, -s3, -s0
				zExit = (w1*p0.Z + w2*p2.Z + w0*p1.Z) / (w0 + w1 + w2)
				next = st.N[3]
			default:
				return sigma, steps, tet, false // no exit face: perturb
			}
		} else {
			// Cold path: an exact zero product — delegate to the full core
			// with its symbolic tie-breaks.
			v := [4]geom.Vec3{p0, p1, p2, p3}
			exitFace, z, ok := exitVerticalVerts(&v, xi)
			if !ok {
				return sigma, steps, tet, false // degeneracy: perturb and retry
			}
			zExit = z
			next = st.N[exitFace]
		}

		lo, hi := zPrev, zExit
		if clip {
			if lo < zmin {
				lo = zmin
			}
			if hi > zmax {
				hi = zmax
			}
		}
		if hi > lo {
			// The tet's linear density at the midpoint: D0 + G·(mid − p0),
			// dot accumulated X then Y then Z — dtfe.Field.Interpolate's
			// exact expression tree.
			midZ := (lo + hi) / 2
			sigma += (st.D0 + (st.G.X*(xiX-p0.X) + st.G.Y*(xiY-p0.Y) + st.G.Z*(midZ-p0.Z))) * (hi - lo)
		}
		if next < 0 {
			if next == outsideSlab {
				return sigma, steps + 1, outsideSlab, false // left the slab: a tile error
			}
			return sigma, steps + 1, -1, true // left the hull: done
		}
		if clip && zExit >= zmax {
			return sigma, steps + 1, -1, true
		}
		zPrev = zExit
		tet = next
	}
	// A cycle can only arise from an undetected degeneracy; perturb.
	return sigma, steps, tet, false
}

// Tetrahedron edges by vertex-slot pair, and each outward face's edge loop
// as (edge index, sign) — the paper's "shared edge calculations can be
// reused": six permuted inner products per tetrahedron instead of twelve.
// Slot pairs: e0=(0,1) e1=(0,2) e2=(0,3) e3=(1,2) e4=(1,3) e5=(2,3).
var (
	edgeSlots = [6][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	// faceEdges[f] lists the 3 (edge, sign) pairs of the outward face
	// opposite slot f, matching delaunay's face table
	// ({1,2,3},{0,3,2},{0,1,3},{0,2,1}).
	faceEdges = [4][3]struct {
		e    int
		sign float64
	}{
		{{3, 1}, {5, 1}, {4, -1}},
		{{2, 1}, {5, -1}, {1, -1}},
		{{0, 1}, {4, 1}, {2, -1}},
		{{1, 1}, {3, -1}, {0, -1}},
	}
)

// exitVertical finds the face through which the vertical line at xi leaves
// the tetrahedron, and the exit z, gathering the vertices through the
// triangulation's native layout. The march itself uses exitVerticalVerts
// on pre-flattened SoA vertices; both share one arithmetic core.
func exitVertical(tt *delaunay.Tet, pts []geom.Vec3, xi geom.Vec2) (face int, zExit float64, ok bool) {
	var v [4]geom.Vec3
	for i := 0; i < 4; i++ {
		v[i] = pts[tt.V[i]]
	}
	return exitVerticalVerts(&v, xi)
}

// exitVerticalVerts is the exit-face core. For a vertical ray the Plücker
// permuted inner product against an edge reduces to the 2D orientation of
// xi against the projected edge, so each of the six shared edges costs a
// handful of flops.
//
// Zero products (the line meets an edge or vertex exactly) are resolved
// first by a simulation-of-simplicity tie-break: the sign is computed as
// if the line passed through (xi.X + ε, xi.Y + ε²) for an infinitesimal
// ε > 0 — the perturbed product is s + ε(b.Y−a.Y) − ε²(b.X−a.X), so for
// s == 0 its sign is that of the first non-zero coefficient. The rule is
// antisymmetric under edge reversal, so neighboring tetrahedra sharing
// the degenerate edge always agree on which side the perturbed line
// passes, and the march stays watertight through vertices and edges.
// ok=false is returned only when even the symbolic sign is undefined (an
// edge whose projection collapses to a point — a vertical edge through
// xi, or a facet coplanar with the ray); callers then perturb for real.
func exitVerticalVerts(v *[4]geom.Vec3, xi geom.Vec2) (face int, zExit float64, ok bool) {
	var s [6]float64
	var sg [6]int
	for e := 0; e < 6; e++ {
		a := v[edgeSlots[e][0]]
		b := v[edgeSlots[e][1]]
		// For a +z ray through xi, the Plücker permuted inner product with
		// the directed edge a→b collapses to this 2D expression (pinned
		// against crossZ by tests).
		s[e] = (b.X-a.X)*(a.Y-xi.Y) + (b.Y-a.Y)*(xi.X-a.X)
		sg[e] = isign(s[e])
		if sg[e] == 0 {
			if dy := b.Y - a.Y; dy != 0 {
				sg[e] = isign(dy)
			} else if dx := b.X - a.X; dx != 0 {
				sg[e] = -isign(dx)
			}
			// Both coefficients zero: the edge projects to a single
			// point; sg stays 0 and the face scan bails out below.
		}
	}
	for f := 0; f < 4; f++ {
		fe := faceEdges[f]
		g0 := int(fe[0].sign) * sg[fe[0].e]
		g1 := int(fe[1].sign) * sg[fe[1].e]
		g2 := int(fe[2].sign) * sg[fe[2].e]
		// Exit face: ray crosses along the outward normal, i.e. all
		// (symbolically perturbed) permuted inner products negative (see
		// crossZ's convention).
		if g0 < 0 && g1 < 0 && g2 < 0 {
			w0 := fe[0].sign * s[fe[0].e]
			w1 := fe[1].sign * s[fe[1].e]
			w2 := fe[2].sign * s[fe[2].e]
			sum := w0 + w1 + w2
			if sum == 0 {
				// All three raw products vanish: the facet is coplanar
				// with the ray and has no well-defined exit z.
				return -1, 0, false
			}
			ft := faceTableRender[f]
			a, b, c := v[ft[0]], v[ft[1]], v[ft[2]]
			// Vertex a pairs with its opposite edge (w1), etc. Exact
			// zeros among the w's are fine here: they are the correct
			// limit weights for a line through the facet's edge/vertex.
			return f, (w1*a.Z + w2*b.Z + w0*c.Z) / sum, true
		}
		if g0 == 0 || g1 == 0 || g2 == 0 {
			// An unresolvable (point-projected) edge on a candidate face:
			// conservative bail-out to numerical perturbation.
			if (g0 <= 0 && g1 <= 0 && g2 <= 0) || (g0 >= 0 && g1 >= 0 && g2 >= 0) {
				return -1, 0, false
			}
		}
	}
	return -1, 0, false
}

// isign is the sign of x as an int (math.Signbit-free three-way).
func isign(x float64) int {
	if x > 0 {
		return 1
	}
	if x < 0 {
		return -1
	}
	return 0
}

// faceTableRender mirrors delaunay's outward face table.
var faceTableRender = [4][3]int{{1, 2, 3}, {0, 3, 2}, {0, 1, 3}, {0, 2, 1}}

// crossZ tests whether the upward ray crosses triangle (a,b,c) in the
// direction `dir` relative to the triangle's orientation (+1: against the
// CCW normal, i.e. entering an outward face; -1: along it, i.e. exiting)
// and returns the intersection z. A zero permuted inner product reports a
// degeneracy (cross=false); callers perturb.
//
// Sign convention (pinned by tests): for a face whose CCW normal has a
// positive dot product with the ray direction, all three permuted inner
// products w_i = π_r ⊙ π_{e_i} are negative.
func crossZ(ray geom.Plucker, a, b, c geom.Vec3, dir int) (z float64, cross bool) {
	w0 := ray.Side(geom.PluckerFromSegment(a, b))
	w1 := ray.Side(geom.PluckerFromSegment(b, c))
	w2 := ray.Side(geom.PluckerFromSegment(c, a))
	if dir < 0 {
		w0, w1, w2 = -w0, -w1, -w2
	}
	if w0 <= 0 || w1 <= 0 || w2 <= 0 {
		return 0, false
	}
	// Barycentric weights (eq 9): vertex a pairs with the opposite edge
	// b→c, etc.
	sum := w0 + w1 + w2
	z = (w1*a.Z + w2*b.Z + w0*c.Z) / sum
	return z, true
}

// String describes the kernel configuration.
func (m *Marcher) String() string {
	return fmt.Sprintf("Marcher{entryFaces=%d, eps=%g}", len(m.entry.faces), m.eps)
}
