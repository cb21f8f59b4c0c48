package render

import (
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
//     line just loaded, with no reads back through dtfe.Field.
type soaTet struct {
	V  [4]int32
	N  [4]int32
	D0 float64
	G  geom.Vec3
}

// soaMesh is the flattened snapshot of the mesh the march runs against,
// built at NewMarcher time. Vertex positions stay shared (each vertex is
// touched by ~24 tets; duplicating them per tet would multiply the working
// set past cache). The snapshot is not invalidated by later
// Field.SetValues calls — build a new Marcher after changing field values.
type soaMesh struct {
	tets []soaTet
	pts  []geom.Vec3
}

func newSoAMesh(f *dtfe.Field) soaMesh {
	tri := f.Tri
	tets := tri.Tets()
	s := soaMesh{
		tets: make([]soaTet, len(tets)),
		pts:  tri.Points(),
	}
	for ti := range s.tets {
		st := &s.tets[ti]
		st.N = [4]int32{-1, -1, -1, -1}
		if tri.Dead(int32(ti)) {
			continue
		}
		tt := &tets[ti]
		if tt.InfSlot() >= 0 {
			continue
		}
		st.V = tt.V
		for k := 0; k < 4; k++ {
			if nn := tt.N[k]; nn >= 0 && !tri.IsInfinite(nn) {
				st.N[k] = nn
			}
		}
		st.D0 = f.Density[tt.V[0]]
		st.G = f.Gradient(int32(ti))
	}
	return s
}
