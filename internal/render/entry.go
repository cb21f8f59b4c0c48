package render

import (
	"math"

	"godtfe/internal/delaunay"
	"godtfe/internal/geom"
)

// The entry-location layer answers "which downward hull facet does the
// vertical line through ξ pierce?" (the paper's Section IV-A2, eq 14).
// Two structures share one facet list, extracted once per Marcher:
//
//   - entryIndex: a uniform bucket grid over the projected facets
//     (O(1) expected, query-order independent) — the stateless locator and
//     the arbiter of every tie.
//   - entryWalk: a visibility walk on the projected facet mesh — the
//     paper's own entry structure — seeded per worker from the previous
//     column's facet (Marcher.findEntryIdx), with entryIndex as fallback.
//
// Both resolve containment with the same exact 2D orientation predicate
// (geom.Orient2D) and the walk defers every boundary tie to the bucket
// index, so they agree on the returned facet index for every query — the
// foundation of the guarantee that a coherent scan renders the same bits
// as stateless per-column lookups.

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
// the exact orientation predicate so every locator shares one notion of
// containment.
func (f *entryFace) contains(xi geom.Vec2) bool {
	return geom.Orient2D(f.pa, f.pb, xi) <= 0 &&
		geom.Orient2D(f.pb, f.pc, xi) <= 0 &&
		geom.Orient2D(f.pc, f.pa, xi) <= 0
}

// buildEntryFaces extracts the downward-facing hull facets ("facing the
// opposite direction of integration", eq 14) and their projected-edge
// adjacency: nbr[f][e] is the facet across directed edge e of facet f
// (edges in the order (a,b), (b,c), (c,a)), or -1 on the projected-hull
// boundary. The facets of a lower convex hull tile its convex projection,
// so crossing a -1 edge means the query is strictly outside every facet.
func buildEntryFaces(tri *delaunay.Triangulation) (faces []entryFace, nbr [][3]int32) {
	pts := tri.Points()
	type edgeKey [2]int32
	type edgeRef struct {
		face int32
		edge int32
	}
	open := make(map[edgeKey]edgeRef)
	mk := func(a, b int32) edgeKey {
		if a > b {
			a, b = b, a
		}
		return edgeKey{a, b}
	}
	for _, hf := range tri.HullFaces() {
		a, b, c := pts[hf.V[0]], pts[hf.V[1]], pts[hf.V[2]]
		n := b.Sub(a).Cross(c.Sub(a)) // outward normal
		if n.Z >= 0 {
			continue // not a downward-facing (entry) facet
		}
		fi := int32(len(faces))
		faces = append(faces, entryFace{
			a: a, b: b, c: c,
			pa: a.XY(), pb: b.XY(), pc: c.XY(),
			behind: hf.Behind,
		})
		nbr = append(nbr, [3]int32{-1, -1, -1})
		verts := [3]int32{hf.V[0], hf.V[1], hf.V[2]}
		for e := 0; e < 3; e++ {
			k := mk(verts[e], verts[(e+1)%3])
			if prev, ok := open[k]; ok {
				nbr[fi][e] = prev.face
				nbr[prev.face][prev.edge] = fi
				delete(open, k)
			} else {
				open[k] = edgeRef{face: fi, edge: int32(e)}
			}
		}
	}
	return faces, nbr
}

// entryIndex locates entry facets through a uniform bucket grid over the
// projected hull bounding box: O(1) expected lookups, independent of query
// order. It is the arbiter the walk defers to on ties.
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
// -1 when the line misses the hull.
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
