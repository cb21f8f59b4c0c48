package render

import (
	"errors"
	"math"
	"slices"

	"godtfe/internal/delaunay"
	"godtfe/internal/dtfe"
	"godtfe/internal/geom"
	"godtfe/internal/geomerr"
)

// Slab is a piece of one mesh in flat form, cut by CutSlab for a block of
// grid columns: every finite tet a march of those columns can reach, with
// local indices. NewSlabMarcher builds the same SoA records from it that
// NewMarcher builds from the whole mesh, so a slab renders its columns bit
// for bit as the whole mesh does. It is the distributed renderer's wire
// form: words and densities, about 37 bytes a tet.
type Slab struct {
	// X0, X1 bound the x of the columns the slab serves; the tets cover
	// them widened by the perturbation ladders' reach.
	X0, X1 float64
	// Eps is the whole mesh's perturbation magnitude (marchEps), and
	// MaxSteps its march step cap (marchSteps).
	Eps      float64
	MaxSteps int
	Pts      []geom.Vec3 // vertex positions, by local index
	Density  []float64   // vertex densities, by local index
	// Tets is eight words a finite tet: the vertex slots, then the
	// neighbours, a hull face's -1 and a tet the slab does not carry
	// outsideSlab (-2).
	Tets []int32
	// Entry is four words a downward hull facet whose tet is carried: the
	// outward vertices, then the tet behind, in the whole mesh's HullFaces
	// order (entryIndex.find breaks ties by lowest index).
	Entry []int32
}

// ErrOutsideSlab reports a march that needed a tet its slab does not
// carry, or columns outside the slab's span: the render fails rather than
// return a truncated column.
var ErrOutsideSlab = errors.New("render: march left its slab")

// maxRung caps the perturbation rung: perturb moves ξ by at most
// ε·2^min(rung, maxRung).
const maxRung = 20

// ladderReach bounds, in units of ε, how far the perturbation ladders can
// carry ξ from its cell sample along x (or y). Each retry moves ξ by at
// most ε·2^min(rung, maxRung) along each axis (the diagonal nudge by
// exactly that in x); each ladder restarts from the sample and makes
// maxRetries moves, the first from rung 0 and the fallback from rung
// maxRetries+1. With maxRetries 16 the fallback dominates:
// 2^17 + 2^18 + 2^19 + 13·2^20 ≈ 1.455e7.
func ladderReach() float64 {
	var reach float64
	for _, base := range [2]int{0, maxRetries + 1} {
		var sum float64
		for a := 0; a < maxRetries; a++ {
			sum += math.Ldexp(1, min(base+a, maxRung))
		}
		reach = max(reach, sum)
	}
	return reach
}

// colX is the x of column i's left edge, the expression TileGrid uses.
func (s *Spec) colX(i int) float64 { return s.Min.X + float64(i)*s.Cell }

// CutSlab cuts the slab the columns of t need from f's mesh: every finite
// tet whose x-extent meets the columns' x span widened by the ladders'
// reach and one ε more for rounding. A march of any line through those
// columns, perturbed or not, stays inside it.
func CutSlab(f *dtfe.Field, spec Spec, t Tile) Slab {
	eps := marchEps(f.Tri.Points())
	return cutSlab(f, spec.colX(t.I0), spec.colX(t.I1), eps, eps*(ladderReach()+1))
}

// cutSlab cuts the tets whose x-extent meets [x0-pad, x1+pad] and the
// entry facets in front of them, renumbering tets and vertices in pool
// order.
func cutSlab(f *dtfe.Field, x0, x1, eps, pad float64) Slab {
	tri := f.Tri
	tets, nf, pts := tri.Tets(), int32(tri.NumFiniteTets()), tri.Points()
	lo, hi := x0-pad, x1+pad
	local := make([]int32, nf)      // whole-mesh tet → slab tet, or outsideSlab
	vert := make([]int32, len(pts)) // whole-mesh vertex → slab vertex + 1, −1 until numbered
	n, nv := int32(0), 0
	for ti := range local {
		v := &tets[ti].V
		a, b, c, d := pts[v[0]].X, pts[v[1]].X, pts[v[2]].X, pts[v[3]].X
		if a < lo && b < lo && c < lo && d < lo || a > hi && b > hi && c > hi && d > hi {
			local[ti] = outsideSlab
			continue
		}
		local[ti] = n
		n++
		for _, w := range v {
			if vert[w] == 0 {
				vert[w] = -1
				nv++
			}
		}
	}
	s := Slab{
		X0: x0, X1: x1, Eps: eps, MaxSteps: marchSteps(tri),
		Pts: make([]geom.Vec3, 0, nv), Density: make([]float64, 0, nv), Tets: make([]int32, 0, 8*n),
	}
	carry := func(v int32) int32 {
		if vert[v] < 0 {
			s.Pts = append(s.Pts, pts[v])
			s.Density = append(s.Density, f.Density[v])
			vert[v] = int32(len(s.Pts))
		}
		return vert[v] - 1
	}
	for ti, lt := range local {
		if lt == outsideSlab {
			continue
		}
		t := &tets[ti]
		for _, v := range t.V {
			s.Tets = append(s.Tets, carry(v))
		}
		for _, nn := range t.N {
			if nn >= nf {
				nn = -1
			} else {
				nn = local[nn]
			}
			s.Tets = append(s.Tets, nn)
		}
	}
	for w := downFacets(tri); len(w) >= 4; w = w[4:] {
		if lt := local[w[3]]; lt != outsideSlab {
			s.Entry = append(s.Entry, vert[w[0]]-1, vert[w[1]]-1, vert[w[2]]-1, lt)
		}
	}
	return s
}

// downFacets lists tri's downward-facing hull facets ("facing the opposite
// direction of integration", eq 14) in HullFaces order, four words a
// facet: the outward-oriented vertices, then the finite tet behind. The
// facets of a lower convex hull tile its convex projection, so a vertical
// line pierces at most one of them in its interior.
func downFacets(tri *delaunay.Triangulation) []int32 {
	pts := tri.Points()
	var w []int32
	for _, hf := range tri.HullFaces() {
		a, b, c := pts[hf.V[0]], pts[hf.V[1]], pts[hf.V[2]]
		if b.Sub(a).Cross(c.Sub(a)).Z >= 0 { // outward normal
			continue // not a downward-facing (entry) facet
		}
		w = append(w, hf.V[0], hf.V[1], hf.V[2], hf.Behind)
	}
	return w
}

// NewSlabMarcher builds the kernel from a slab, running the SoA builder
// NewMarcher runs; it marches only columns inside the slab's span. A slab
// whose words are ragged, whose indices are out of range, whose density
// count differs from its vertex count, or that holds a non-finite number
// where one must be finite (a vertex, ε, the span, the vertices' extent)
// is a geomerr.ErrMeshCorrupt.
func NewSlabMarcher(s *Slab) (*Marcher, error) {
	const op = "render.NewSlabMarcher"
	np, nt := int32(len(s.Pts)), int32(len(s.Tets)/8)
	switch {
	case len(s.Tets)%8 != 0 || len(s.Entry)%4 != 0:
		return nil, geomerr.Corrupt(op, "%d tet words, %d entry words", len(s.Tets), len(s.Entry))
	case len(s.Density) != len(s.Pts):
		return nil, geomerr.Corrupt(op, "%d densities for %d vertices", len(s.Density), len(s.Pts))
	case !(s.X0 <= s.X1) || math.IsInf(s.X0, 0) || math.IsInf(s.X1, 0) || !(s.Eps >= 0) || math.IsInf(s.Eps, 0):
		return nil, geomerr.Corrupt(op, "span [%v, %v], eps %v", s.X0, s.X1, s.Eps)
	case s.MaxSteps < len(s.Tets)/8:
		return nil, geomerr.Corrupt(op, "step cap %d below the slab's %d tets", s.MaxSteps, len(s.Tets)/8)
	}
	if i := slices.IndexFunc(s.Pts, func(p geom.Vec3) bool { return !p.IsFinite() }); i >= 0 {
		return nil, geomerr.Corrupt(op, "vertex %d is %v", i, s.Pts[i])
	}
	if d := geom.BoundsOf(s.Pts).Size(); !d.IsFinite() {
		return nil, geomerr.Corrupt(op, "vertex extent %v overflows", d)
	}
	for i, w := range s.Tets {
		if i%8 < 4 && (w < 0 || w >= np) {
			return nil, geomerr.Corrupt(op, "tet %d slot %d: vertex %d out of range", i/8, i%4, w)
		}
		if i%8 >= 4 && (w < outsideSlab || w >= nt) {
			return nil, geomerr.Corrupt(op, "tet %d face %d: neighbour %d out of range", i/8, i%4, w)
		}
	}
	for i, w := range s.Entry {
		if i%4 < 3 && (w < 0 || w >= np) || i%4 == 3 && (w < 0 || w >= nt) {
			return nil, geomerr.Corrupt(op, "entry facet %d word %d: index %d out of range", i/4, i%4, w)
		}
	}
	fm := flatMesh{
		pts: s.Pts, density: s.Density, nt: int(nt),
		tet: func(i int) (v, n [4]int32) {
			w := s.Tets[8*i:]
			return [4]int32(w), [4]int32(w[4:])
		},
		entry: s.Entry, eps: s.Eps, x0: s.X0, x1: s.X1, maxSteps: s.MaxSteps,
	}
	return fm.build(), nil
}
