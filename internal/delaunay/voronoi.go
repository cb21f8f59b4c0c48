package delaunay

import (
	"math"

	"godtfe/internal/geom"
)

// VoronoiVolumes computes, for every canonical vertex, the exact volume of
// its Voronoi cell from the Delaunay dual: the cell face dual to a
// Delaunay edge (v,u) is the polygon of circumcenters of the tetrahedra
// ringing the edge (it lies in the bisector plane of v and u), and the
// cell volume is the sum of the cones from v to those polygons. Vertices
// whose cells are unbounded (hull vertices, whose edge rings touch
// infinite tetrahedra) get bounded[i] == false and volume 0.
//
// This is the quantity the TESS estimator divides masses by (ρ = m/V_vor);
// the DTFE instead uses the contiguous cell ΣV_tet/(d+1) (VertexVolumes).
func (t *Triangulation) VoronoiVolumes() (vol []float64, bounded []bool) {
	n := len(t.pts)
	vol = make([]float64, n)
	bounded = make([]bool, n)
	for i := range bounded {
		bounded[i] = true
	}

	// Circumcenters of live finite tets.
	centers := make([]geom.Vec3, len(t.tets))
	centerOK := make([]bool, len(t.tets))
	for i := range t.tets {
		if t.dead[i] || t.tets[i].InfSlot() >= 0 {
			continue
		}
		tt := &t.tets[i]
		a := t.pts[tt.V[0]]
		b := t.pts[tt.V[1]]
		c := t.pts[tt.V[2]]
		d := t.pts[tt.V[3]]
		r0 := b.Sub(a).Scale(2)
		r1 := c.Sub(a).Scale(2)
		r2 := d.Sub(a).Scale(2)
		rhs := geom.Vec3{
			X: b.Norm2() - a.Norm2(),
			Y: c.Norm2() - a.Norm2(),
			Z: d.Norm2() - a.Norm2(),
		}
		if x, ok := geom.Solve3(r0, r1, r2, rhs); ok {
			centers[i] = x
			centerOK[i] = true
		}
	}

	processed := make(map[uint64]bool)
	var ring []int32
	for ti := range t.tets {
		if t.dead[ti] || t.tets[ti].InfSlot() >= 0 {
			continue
		}
		tt := &t.tets[ti]
		for e := 0; e < 6; e++ {
			v := tt.V[edgeSlotPairs[e][0]]
			u := tt.V[edgeSlotPairs[e][1]]
			key := dirEdgeKey(min(v, u), max(v, u))
			if processed[key] {
				continue
			}
			processed[key] = true

			ring = ring[:0]
			ok := t.edgeRing(int32(ti), v, u, &ring)
			if !ok || len(ring) < 3 {
				bounded[v] = false
				bounded[u] = false
				continue
			}
			allOK := true
			for _, r := range ring {
				if !centerOK[r] {
					allOK = false
					break
				}
			}
			if !allOK {
				bounded[v] = false
				bounded[u] = false
				continue
			}
			// Cone volumes from each endpoint to the circumcenter polygon.
			c0 := centers[ring[0]]
			var sv, su float64
			pv, pu := t.pts[v], t.pts[u]
			for k := 1; k+1 < len(ring); k++ {
				ci := centers[ring[k]]
				cj := centers[ring[k+1]]
				sv += geom.TetVolume(pv, c0, ci, cj)
				su += geom.TetVolume(pu, c0, ci, cj)
			}
			vol[v] += math.Abs(sv)
			vol[u] += math.Abs(su)
		}
	}

	for i := range vol {
		if !bounded[i] {
			vol[i] = 0
		}
	}
	// Duplicates inherit their canonical vertex's cell.
	for i := range t.dupOf {
		if c := t.dupOf[i]; c != int32(i) {
			vol[i] = vol[c]
			bounded[i] = bounded[c]
		}
	}
	return vol, bounded
}

// edgeSlotPairs enumerates a tet's six edges by vertex slots.
var edgeSlotPairs = [6][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}

// edgeRing collects, in cyclic order, the tetrahedra around edge (v,u)
// starting from tet start (which must contain both). ok is false when the
// ring leaves the finite triangulation (hull edge).
func (t *Triangulation) edgeRing(start, v, u int32, out *[]int32) bool {
	cur := start
	prev := int32(-1)
	for {
		*out = append(*out, cur)
		if len(*out) > len(t.tets) {
			return false // defensive: corrupted ring
		}
		tt := &t.tets[cur]
		if tt.InfSlot() >= 0 {
			return false
		}
		// The two faces containing edge (v,u) are those opposite the other
		// two vertices; move across the one that doesn't lead back.
		next := int32(-1)
		for s := 0; s < 4; s++ {
			w := tt.V[s]
			if w == v || w == u {
				continue
			}
			n := tt.N[s] // face opposite w contains v and u
			if n == prev {
				continue
			}
			next = n
			break
		}
		if next == -1 {
			// Both candidate moves lead back: degenerate two-tet ring.
			return len(*out) >= 3
		}
		if next == start {
			return true
		}
		prev = cur
		cur = next
	}
}
