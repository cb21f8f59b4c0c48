package render

import (
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
//     check instead of an InfSlot scan of the neighbor.
//   - D0, G: the density at vertex slot 0 and the tet's constant density
//     gradient, fused so interpolation is one multiply-add chain off the
//     line just loaded. G is solved here (dtfe.Field.Gradient); no other
//     table holds it.
type soaTet struct {
	V  [4]int32
	N  [4]int32
	D0 float64
	G  geom.Vec3
}

// soaMesh is the flattened snapshot of the mesh the march runs against,
// built at NewMarcher time: the only per-tet structure a Marcher keeps, so
// a resident Marcher is the resident mesh (see Mesh). Records follow the
// compacted pool, one unused record (N all -1) per infinite tet. Vertex
// positions stay shared: each is touched by ~24 tets, and duplicating them
// per tet would multiply the working set past cache.
type soaMesh struct {
	// finite leads so tets and pts keep their offsets in Marcher: moved
	// 8 bytes, they recompiled tryColumn with an extra spill (DESIGN §14).
	finite int // records [0, finite) are the finite tets
	tets   []soaTet
	pts    []geom.Vec3
}

func newSoAMesh(f *dtfe.Field) soaMesh {
	tri := f.Tri
	tets := tri.Tets()
	s := soaMesh{
		tets:   make([]soaTet, len(tets)),
		pts:    tri.Points(),
		finite: tri.NumFiniteTets(),
	}
	nf := int32(s.finite)
	for ti := range s.tets {
		st := &s.tets[ti]
		st.N = [4]int32{-1, -1, -1, -1}
		if int32(ti) >= nf {
			continue
		}
		tt := &tets[ti]
		st.V = tt.V
		for k, nn := range tt.N {
			if nn < nf { // a hull face's neighbour is an infinite tet
				st.N[k] = nn
			}
		}
		st.D0 = f.Density[tt.V[0]]
		st.G = f.Gradient(int32(ti))
	}
	return s
}

// Mesh returns the mesh the Marcher holds in the form delaunay.Restore
// takes: the shared vertex positions, and the finite records' V and N
// (a hull face's neighbour NoTet) copied over dst if it is large enough,
// with capacity for Restore to append the infinite tets in place.
func (m *Marcher) Mesh(dst []delaunay.Tet) (pts []geom.Vec3, finite []delaunay.Tet) {
	s := &m.soa
	finite = slices.Grow(dst[:0], len(s.tets))[:s.finite]
	for i := range finite {
		finite[i] = delaunay.Tet{V: s.tets[i].V, N: s.tets[i].N}
	}
	return s.pts, finite
}

// Bytes is the heap the Marcher keeps reachable, from slice lengths and the
// record sizes TestMarcherBytes pins: the SoA records, the positions they
// share with the caller, the entry facets and the bucket index's headers.
func (m *Marcher) Bytes() int {
	return 64*len(m.soa.tets) + 24*len(m.soa.pts) + (128+12)*len(m.entry.faces) + 24*len(m.entry.cells)
}
