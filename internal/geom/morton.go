package geom

import "sort"

// Morton (Z-order) sorting of 3D points. Inserting points into an
// incremental Delaunay triangulation in Morton order keeps successive
// points spatially close, which makes the remembering walk O(1) expected
// per insertion.

// MortonKey returns the 63-bit Morton code of p within the box b, using 21
// bits per axis.
func MortonKey(p Vec3, b AABB) uint64 {
	const bits = 21
	const maxv = (1 << bits) - 1
	size := b.Size()
	nx := normCoord(p.X, b.Min.X, size.X, maxv)
	ny := normCoord(p.Y, b.Min.Y, size.Y, maxv)
	nz := normCoord(p.Z, b.Min.Z, size.Z, maxv)
	return interleave3(nx) | interleave3(ny)<<1 | interleave3(nz)<<2
}

func normCoord(x, min, size float64, maxv uint64) uint64 {
	if size <= 0 {
		return 0
	}
	f := (x - min) / size
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return uint64(f * float64(maxv))
}

// interleave3 spreads the low 21 bits of v so that consecutive bits are 3
// apart (standard bit-twiddling expansion).
func interleave3(v uint64) uint64 {
	v &= 0x1fffff
	v = (v | v<<32) & 0x1f00000000ffff
	v = (v | v<<16) & 0x1f0000ff0000ff
	v = (v | v<<8) & 0x100f00f00f00f00f
	v = (v | v<<4) & 0x10c30c30c30c30c3
	v = (v | v<<2) & 0x1249249249249249
	return v
}

// MortonOrder returns a permutation of indices [0,len(pts)) that visits the
// points in Morton order over their bounding box.
func MortonOrder(pts []Vec3) []int {
	b := BoundsOf(pts)
	keys := make([]uint64, len(pts))
	for i, p := range pts {
		keys[i] = MortonKey(p, b)
	}
	order := make([]int, len(pts))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		ki, kj := keys[order[i]], keys[order[j]]
		if ki != kj {
			return ki < kj
		}
		return order[i] < order[j] // stable for equal keys (e.g. duplicates)
	})
	return order
}
