package pipeline

import (
	"math"

	"godtfe/internal/geom"
)

// cellIndex answers the pipeline's cube queries. It buckets the points into
// a grid of cubic cells over their bounding box with one counting sort, so
// each cell's point indices are contiguous and ascending, and so is each
// row of cells along x. A query scans the rows of cells its box meets and
// tests every point there with the box's closed Contains: it returns the
// same points as any exact range search, in cell order.
type cellIndex struct {
	pts        []geom.Vec3
	lo         geom.Vec3 // the points' bounding-box minimum
	inv        float64   // 1 / the cell side
	nx, ny, nz int       // cells along x, y and z
	start      []int32   // cell c, numbered x fastest, holds idx[start[c]:start[c+1]]
	idx        []int32
}

// newCellIndex indexes pts, which it references, in cells of the given
// positive side, doubled until there are no more cells than points.
func newCellIndex(pts []geom.Vec3, side float64) *cellIndex {
	ci := &cellIndex{pts: pts, nx: 1, ny: 1, nz: 1}
	if len(pts) > 0 {
		box := geom.EmptyAABB()
		for _, p := range pts {
			box.Extend(p)
		}
		ci.lo = box.Min
		sz := box.Size()
		for {
			fx, fy, fz := math.Floor(sz.X/side)+1, math.Floor(sz.Y/side)+1, math.Floor(sz.Z/side)+1
			if fx*fy*fz <= float64(len(pts)) {
				ci.nx, ci.ny, ci.nz = int(fx), int(fy), int(fz)
				break
			}
			side *= 2
		}
	}
	ci.inv = 1 / side
	// Count each cell's points one slot ahead, turn the counts into ends,
	// place every index at its cell's cursor (which walks the cell's start
	// up to its end), then shift the ends back into starts.
	ci.start = make([]int32, ci.nx*ci.ny*ci.nz+1)
	for _, p := range pts {
		ci.start[ci.key(p)+1]++
	}
	for c := 1; c < len(ci.start); c++ {
		ci.start[c] += ci.start[c-1]
	}
	ci.idx = make([]int32, len(pts))
	for i, p := range pts {
		c := ci.key(p)
		ci.idx[ci.start[c]] = int32(i)
		ci.start[c]++
	}
	copy(ci.start[1:], ci.start)
	ci.start[0] = 0
	return ci
}

// cell is the cell along one axis of n cells from lo that holds v. It is
// monotone in v, so the cells of a box's bounds bracket the cells of every
// point inside it, faces included.
func (ci *cellIndex) cell(v, lo float64, n int) int {
	f := (v - lo) * ci.inv
	switch {
	case !(f >= 0): // below the grid, or NaN
		return 0
	case f >= float64(n):
		return n - 1
	}
	return int(f)
}

func (ci *cellIndex) key(p geom.Vec3) int {
	return (ci.cell(p.Z, ci.lo.Z, ci.nz)*ci.ny+ci.cell(p.Y, ci.lo.Y, ci.ny))*ci.nx + ci.cell(p.X, ci.lo.X, ci.nx)
}

// bounds is the range of cells b meets along each axis; the z range is
// empty when b is inverted along x.
func (ci *cellIndex) bounds(b geom.AABB) (x0, x1, y0, y1, z0, z1 int) {
	x0, x1 = ci.cell(b.Min.X, ci.lo.X, ci.nx), ci.cell(b.Max.X, ci.lo.X, ci.nx)
	y0, y1 = ci.cell(b.Min.Y, ci.lo.Y, ci.ny), ci.cell(b.Max.Y, ci.lo.Y, ci.ny)
	z0, z1 = ci.cell(b.Min.Z, ci.lo.Z, ci.nz), ci.cell(b.Max.Z, ci.lo.Z, ci.nz)
	if x0 > x1 {
		z1 = z0 - 1
	}
	return
}

// InBox appends the indices of the points inside the closed box b to dst
// and returns it. Each row of cells b meets is one range of idx.
func (ci *cellIndex) InBox(b geom.AABB, dst []int32) []int32 {
	x0, x1, y0, y1, z0, z1 := ci.bounds(b)
	for z := z0; z <= z1; z++ {
		for y := y0; y <= y1; y++ {
			row := (z*ci.ny + y) * ci.nx
			for _, i := range ci.idx[ci.start[row+x0]:ci.start[row+x1+1]] {
				if b.Contains(ci.pts[i]) {
					dst = append(dst, i)
				}
			}
		}
	}
	return dst
}
