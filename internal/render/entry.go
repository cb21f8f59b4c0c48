package render

import (
	"math"

	"godtfe/internal/geom"
)

// The entry-location layer answers "which downward hull facet does the
// vertical line through ξ pierce?" (the paper's Section IV-A2, eq 14) with
// one stateless structure, entryIndex. Its answer does not depend on query
// order, so a tile, a run of columns or a whole grid renders the same bits
// whatever the scan order or worker count.

// entryFace is one downward-facing hull facet: the facet vertices (outward
// oriented), their x-y projections, and the finite tetrahedron behind it.
// Downward facets project clockwise, so a point is inside the projection
// iff it is not strictly left of any directed edge pa→pb→pc→pa.
type entryFace struct {
	a, b, c geom.Vec3
	pa      geom.Vec2
	pb      geom.Vec2
	pc      geom.Vec2
	behind  int32
}

// contains reports whether xi lies in the closed projected facet, using
// the exact orientation predicate, so a line on a shared edge or vertex is
// inside every facet that has it.
func (f *entryFace) contains(xi geom.Vec2) bool {
	return geom.Orient2D(f.pa, f.pb, xi) <= 0 &&
		geom.Orient2D(f.pb, f.pc, xi) <= 0 &&
		geom.Orient2D(f.pc, f.pa, xi) <= 0
}

// entryIndex locates entry facets through a uniform bucket grid over the
// projected hull bounding box: O(1) expected lookups, independent of query
// order.
type entryIndex struct {
	faces []entryFace
	bmin  geom.Vec2
	cell  float64
	nx    int
	ny    int
	cells [][]int32 // face indices per bucket
}

func newEntryIndex(faces []entryFace) *entryIndex {
	e := &entryIndex{faces: faces}
	if len(faces) == 0 {
		return e
	}
	box2 := [2]geom.Vec2{{X: math.Inf(1), Y: math.Inf(1)}, {X: math.Inf(-1), Y: math.Inf(-1)}}
	for i := range faces {
		f := &faces[i]
		for _, p := range [3]geom.Vec2{f.pa, f.pb, f.pc} {
			box2[0].X = math.Min(box2[0].X, p.X)
			box2[0].Y = math.Min(box2[0].Y, p.Y)
			box2[1].X = math.Max(box2[1].X, p.X)
			box2[1].Y = math.Max(box2[1].Y, p.Y)
		}
	}
	// Bucket resolution ~ sqrt(#faces) per side.
	side := int(math.Sqrt(float64(len(faces)))) + 1
	w := box2[1].X - box2[0].X
	h := box2[1].Y - box2[0].Y
	size := math.Max(w, h)
	if size <= 0 {
		size = 1
	}
	e.bmin = box2[0]
	e.cell = size / float64(side)
	e.nx = int(w/e.cell) + 1
	e.ny = int(h/e.cell) + 1
	e.cells = make([][]int32, e.nx*e.ny)
	for fi := range faces {
		f := &faces[fi]
		lox, loy := e.bucket(geom.Vec2{
			X: math.Min(f.pa.X, math.Min(f.pb.X, f.pc.X)),
			Y: math.Min(f.pa.Y, math.Min(f.pb.Y, f.pc.Y)),
		})
		hix, hiy := e.bucket(geom.Vec2{
			X: math.Max(f.pa.X, math.Max(f.pb.X, f.pc.X)),
			Y: math.Max(f.pa.Y, math.Max(f.pb.Y, f.pc.Y)),
		})
		for by := loy; by <= hiy; by++ {
			for bx := lox; bx <= hix; bx++ {
				idx := by*e.nx + bx
				e.cells[idx] = append(e.cells[idx], int32(fi))
			}
		}
	}
	return e
}

func (e *entryIndex) bucket(p geom.Vec2) (bx, by int) {
	bx = int((p.X - e.bmin.X) / e.cell)
	by = int((p.Y - e.bmin.Y) / e.cell)
	if bx < 0 {
		bx = 0
	}
	if by < 0 {
		by = 0
	}
	if bx >= e.nx {
		bx = e.nx - 1
	}
	if by >= e.ny {
		by = e.ny - 1
	}
	return
}

// find returns the entry facet pierced by the vertical line through xi, or
// -1 when the line misses the hull. A line on a shared facet edge or vertex
// gets the lowest-index facet whose closed projection contains it: buckets
// list their facets in ascending index order.
func (e *entryIndex) find(xi geom.Vec2) int32 {
	if len(e.faces) == 0 {
		return -1
	}
	if xi.X < e.bmin.X || xi.Y < e.bmin.Y ||
		xi.X > e.bmin.X+float64(e.nx)*e.cell || xi.Y > e.bmin.Y+float64(e.ny)*e.cell {
		return -1
	}
	bx, by := e.bucket(xi)
	for _, fi := range e.cells[by*e.nx+bx] {
		if e.faces[fi].contains(xi) {
			return fi
		}
	}
	return -1
}
