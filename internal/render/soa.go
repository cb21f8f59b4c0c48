package render

import (
	"math"
	"slices"

	"godtfe/internal/delaunay"
	"godtfe/internal/dtfe"
	"godtfe/internal/geom"
)

// soaTet is the march's per-tetrahedron hot record: exactly 64 bytes — one
// cache line — holding everything a march step needs beyond the shared
// vertex array. In the triangulation's native layout one step touches the
// Tet (vertex+neighbor indices), the Points array, the per-vertex Density
// array, the per-tet gradient array, and the *neighbor's* Tet for the
// IsInfinite test — four separate arrays and an extra cache line per step.
// Here the step reads one line plus the (small, reused, cache-resident)
// vertex positions:
//
//   - V: vertex indices into the shared position array, by slot.
//   - N: neighbor tet across the face opposite each slot, with infinite
//     (hull-exit) neighbors pre-folded to -1 so "left the hull" is a sign
//     check instead of an InfSlot scan of the neighbor, and a neighbour a
//     slab does not carry marked outsideSlab.
//   - D0, G: the density at vertex slot 0 and the tet's constant density
//     gradient, fused so interpolation is one multiply-add chain off the
//     line just loaded. G is solved here (dtfe.TetGradient); no other
//     table holds it.
type soaTet struct {
	V  [4]int32
	N  [4]int32
	D0 float64
	G  geom.Vec3
}

// outsideSlab is a record's neighbour across a face whose tet its slab does
// not carry; the hull's is -1. tryColumn tests for it on its exit path only.
const outsideSlab = -2

// soaMesh is the flattened snapshot of the mesh the march runs against,
// built with the Marcher: the only per-tet structure a Marcher keeps, so a
// resident Marcher is the resident mesh (see Mesh). Records are the finite
// tets in pool order. Vertex positions stay shared: each is touched by ~24
// tets, and duplicating them per tet would multiply the working set past
// cache.
type soaMesh struct {
	// hull leads so tets and pts keep their offsets in Marcher: moved 8
	// bytes, they recompiled tryColumn with an extra spill (DESIGN §14).
	hull int // hull faces among the records' neighbours
	tets []soaTet
	pts  []geom.Vec3
}

// flatMesh is the form every Marcher is built from, whether the whole of a
// Field's mesh (NewMarcher) or a slab of one (NewSlabMarcher): vertex
// positions and densities by index; nt finite tets whose vertex slots and
// neighbours tet reports, a hull face's neighbour -1 and one the slab does
// not carry outsideSlab; the downward entry facets, four words a facet (the
// outward vertices, then the tet behind) in the whole mesh's HullFaces
// order; the perturbation magnitude; the x span [x0, x1] of the lines it
// may march; and the march's step cap.
type flatMesh struct {
	pts      []geom.Vec3
	density  []float64
	nt       int
	tet      func(i int) (v, n [4]int32)
	entry    []int32
	eps      float64
	x0, x1   float64
	maxSteps int
}

// build is the one SoA builder: it solves each tet's gradient into its
// record, and builds the bucket index over the entry facets. Indices must
// be in range (NewSlabMarcher checks them first).
func (fm *flatMesh) build() *Marcher {
	pts, d := fm.pts, fm.density
	s := soaMesh{tets: make([]soaTet, fm.nt), pts: pts}
	for i := range s.tets {
		v, n := fm.tet(i)
		for _, nn := range n {
			if nn == -1 {
				s.hull++
			}
		}
		s.tets[i] = soaTet{
			V: v, N: n, D0: d[v[0]],
			G: dtfe.TetGradient(pts[v[0]], pts[v[1]], pts[v[2]], pts[v[3]], d[v[0]], d[v[1]], d[v[2]], d[v[3]]),
		}
	}
	faces := make([]entryFace, 0, len(fm.entry)/4)
	for w := fm.entry; len(w) >= 4; w = w[4:] {
		a, b, c := pts[w[0]], pts[w[1]], pts[w[2]]
		faces = append(faces, entryFace{a: a, b: b, c: c, pa: a.XY(), pb: b.XY(), pc: c.XY(), behind: w[3]})
	}
	return &Marcher{soa: s, entry: newEntryIndex(faces), eps: fm.eps, x0: fm.x0, x1: fm.x1, maxSteps: fm.maxSteps}
}

// NewMarcher prepares the kernel over the whole of f's mesh: it extracts
// the downward-facing hull facets (eq 14), builds the 2D bucket index over
// them, and flattens the finite tetrahedra into the SoA view the march
// runs against. It keeps neither f nor f.Tri, only the SoA view and the
// shared positions; build a new one after Field.SetValues.
func NewMarcher(f *dtfe.Field) *Marcher {
	tri := f.Tri
	tets, nf := tri.Tets(), int32(tri.NumFiniteTets())
	fm := flatMesh{
		pts: tri.Points(), density: f.Density, nt: int(nf),
		tet: func(i int) (v, n [4]int32) {
			t := &tets[i]
			n = t.N
			for k, nn := range n {
				if nn >= nf { // a hull face's neighbour is an infinite tet
					n[k] = -1
				}
			}
			return t.V, n
		},
		entry: downFacets(tri), eps: marchEps(tri.Points()),
		x0: math.Inf(-1), x1: math.Inf(1), maxSteps: marchSteps(tri),
	}
	return fm.build()
}

// marchSteps is the step cap of every march over a mesh, whole or slab:
// a line crosses a tet at most once, so a march past the whole pool's
// length (hull included, as it always was) is a cycle.
func marchSteps(tri *delaunay.Triangulation) int { return len(tri.Tets()) + 16 }

// marchEps is the perturbation magnitude of a mesh's Marcher (Fig 2): a
// fixed fraction of the whole mesh's bounding diagonal, so every slab of
// one mesh perturbs by the same ε.
func marchEps(pts []geom.Vec3) float64 {
	return 1e-9 * geom.BoundsOf(pts).Diagonal()
}

// Mesh returns the mesh the Marcher holds in the form delaunay.Restore
// takes: the shared vertex positions, and the finite records' V and N
// (a hull face's neighbour NoTet) copied over dst if it is large enough,
// with capacity for Restore to append the infinite tets in place.
func (m *Marcher) Mesh(dst []delaunay.Tet) (pts []geom.Vec3, finite []delaunay.Tet) {
	s := &m.soa
	finite = slices.Grow(dst[:0], len(s.tets)+s.hull)[:len(s.tets)]
	for i := range finite {
		finite[i] = delaunay.Tet{V: s.tets[i].V, N: s.tets[i].N}
	}
	return s.pts, finite
}

// Bytes is the heap the Marcher keeps reachable, from slice lengths and the
// record sizes TestMarcherBytes pins: the SoA records, the positions they
// share with the caller, the entry facets and the bucket index's headers.
func (m *Marcher) Bytes() int {
	return 64*len(m.soa.tets) + 24*len(m.soa.pts) + 128*len(m.entry.faces) + 24*len(m.entry.cells)
}
