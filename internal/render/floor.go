package render

import (
	"math"
	"slices"

	"godtfe/internal/geom"
)

// floorIndex starts a clipped column's march at its floor z = ZMin, not at
// the lower hull (DESIGN §7): a tet below the floor adds nothing to Σ. It
// rasters the spec's cell centres, each cell holding a tet whose section by
// the floor covers its centre, written in pool order, so where a line
// starts depends on the line, the mesh and the spec's grid only.
type floorIndex struct {
	spec  Spec
	cells []int32 // row-major, a tet plus one, 0 where none was written
}

// newFloorIndex rasters m's tets for spec's lines, or returns nil when they
// are not clipped, no vertex lies below spec.ZMin (the hull entry is then
// as low as the floor) or the lines are jittered off the centres.
func newFloorIndex(m *Marcher, spec Spec) *floorIndex {
	s, z := &m.soa, spec.ZMin
	if !(z < spec.ZMax) || spec.Samples > 1 || !slices.ContainsFunc(s.pts, func(p geom.Vec3) bool { return p.Z < z }) {
		return nil
	}
	fl := &floorIndex{spec: spec, cells: make([]int32, spec.Nx*spec.Ny)}
	for t := range s.tets {
		v := &s.tets[t].V
		z0, z1, z2, z3 := s.pts[v[0]].Z, s.pts[v[1]].Z, s.pts[v[2]].Z, s.pts[v[3]].Z
		if (z0 <= z || z1 <= z || z2 <= z || z3 <= z) && (z0 > z || z1 > z || z2 > z || z3 > z) {
			fl.raster(int32(t), s.verts(int32(t)), m.eps)
		}
	}
	return fl
}

// raster writes tet t, with vertices v, into the cells whose centres its
// section by the floor covers, widened by pad: along a row, where the
// row's line on the floor lies inside all four outward face planes.
func (fl *floorIndex) raster(t int32, v [4]geom.Vec3, pad float64) {
	sp := &fl.spec
	var n [4]geom.Vec3
	var d [4]float64
	for f, ft := range faceTableRender {
		n[f] = v[ft[1]].Sub(v[ft[0]]).Cross(v[ft[2]].Sub(v[ft[0]]))
		d[f] = n[f].Dot(v[ft[0]]) - n[f].Z*sp.ZMin
	}
	j0, j1 := centres(min(v[0].Y, v[1].Y, v[2].Y, v[3].Y), max(v[0].Y, v[1].Y, v[2].Y, v[3].Y), sp.Min.Y, sp.Cell, sp.Ny)
	for j := j0; j <= j1; j++ {
		y := sp.Min.Y + (float64(j)+0.5)*sp.Cell
		lo, hi := math.Inf(-1), math.Inf(1)
		for f := range n {
			switch r := d[f] - n[f].Y*y; { // n.X·x ≤ r inside face f
			case n[f].X > 0:
				hi = min(hi, r/n[f].X)
			case n[f].X < 0:
				lo = max(lo, r/n[f].X)
			case r < 0:
				lo = math.Inf(1)
			}
		}
		i0, i1 := centres(lo-pad, hi+pad, sp.Min.X, sp.Cell, sp.Nx)
		for i := i0; i <= i1; i++ {
			fl.cells[j*sp.Nx+i] = t + 1
		}
	}
}

// centres is the first and last of n cells from x0 whose centres lie in
// [lo, hi], first > last when none does.
func centres(lo, hi, x0, cell float64, n int) (int, int) {
	a, b := max(math.Ceil((lo-x0)/cell-0.5), 0), min(math.Floor((hi-x0)/cell-0.5), float64(n-1))
	if !(a <= b) {
		return 1, 0
	}
	return int(a), int(b)
}

// start returns the tet the march of the line through xi begins at, P, or
// -1 for the hull entry: S is the tet the raster holds for the cell xi is
// the centre of, P the neighbour the line enters S from. The march runs
// from P with zPrev = ZMin; P's exit z, which it computes itself, is the zPrev
// the hull-entry march gave S, so every term is that march's. A line off
// the centres, an empty cell, an S the line does not enter from a
// neighbour and a P whose term would not be empty fall back.
func (fl *floorIndex) start(m *Marcher, xi geom.Vec2) int32 {
	sp := &fl.spec
	i, j := int(math.Floor((xi.X-sp.Min.X)/sp.Cell)), int(math.Floor((xi.Y-sp.Min.Y)/sp.Cell))
	if i < 0 || j < 0 || i >= sp.Nx || j >= sp.Ny || fl.cells[j*sp.Nx+i] == 0 ||
		xi != (geom.Vec2{X: sp.Min.X + (float64(i)+0.5)*sp.Cell, Y: sp.Min.Y + (float64(j)+0.5)*sp.Cell}) {
		return -1
	}
	s := fl.cells[j*sp.Nx+i] - 1
	v := m.soa.verts(s)
	for f := range faceEdges {
		if w := sides(&v, f, xi); !(w[0] > 0 && w[1] > 0 && w[2] > 0) {
			continue // the line does not enter S by f
		}
		p := m.soa.tets[s].N[f]
		if p < 0 {
			return -1 // S is entered from the hull or from outside the slab
		}
		if g := slices.Index(m.soa.tets[p].N[:], s); g >= 0 {
			// P leaves by g on the march's fast path, at the z it computes.
			u := m.soa.verts(p)
			w, ft := sides(&u, g, xi), &faceTableRender[g]
			if w[0] < 0 && w[1] < 0 && w[2] < 0 && (w[1]*u[ft[0]].Z+w[2]*u[ft[1]].Z+w[0]*u[ft[2]].Z)/(w[0]+w[1]+w[2]) <= sp.ZMin {
				return p
			}
		}
		return -1
	}
	return -1
}

// sides are the march's three signed products of face f of the tet with
// vertices v: all negative when the line through xi leaves by f, all
// positive when it enters by f.
func sides(v *[4]geom.Vec3, f int, xi geom.Vec2) (w [3]float64) {
	for k, x := range faceEdges[f] {
		a, b := &v[edgeSlots[x.e][0]], &v[edgeSlots[x.e][1]]
		w[k] = x.sign * ((b.X-a.X)*(a.Y-xi.Y) + (b.Y-a.Y)*(xi.X-a.X))
	}
	return w
}

// verts gathers tet t's vertex positions.
func (s *soaMesh) verts(t int32) [4]geom.Vec3 {
	v := &s.tets[t].V
	return [4]geom.Vec3{s.pts[v[0]], s.pts[v[1]], s.pts[v[2]], s.pts[v[3]]}
}
