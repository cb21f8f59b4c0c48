// Package kdtree implements a 3D kd-tree over points with one query, the
// nearest point. It is the private index of the zero-order (Voronoi-cell)
// density baseline, render.ZeroOrder: nearest-particle lookup is exactly
// Voronoi-cell membership. Box queries go through pipeline.CellIndex.
package kdtree

import (
	"math"

	"godtfe/internal/geom"
)

// Tree is an immutable 3D kd-tree. Build one with New.
type Tree struct {
	pts []geom.Vec3
	idx []int32 // permutation of point indices in tree layout
	// The tree is stored implicitly: node n covers idx[lo:hi] with the
	// median at mid; children are the sub-ranges. We store it as a simple
	// recursive median layout and recompute ranges during traversal.
	leafSize int
}

// New builds a kd-tree over pts. The points slice is referenced, not
// copied.
func New(pts []geom.Vec3) *Tree {
	t := &Tree{
		pts:      pts,
		idx:      make([]int32, len(pts)),
		leafSize: 16,
	}
	for i := range t.idx {
		t.idx[i] = int32(i)
	}
	t.build(0, len(pts), 0)
	return t
}

func coord(p geom.Vec3, axis int) float64 {
	switch axis {
	case 0:
		return p.X
	case 1:
		return p.Y
	default:
		return p.Z
	}
}

func (t *Tree) build(lo, hi, depth int) {
	if hi-lo <= t.leafSize {
		return
	}
	axis := depth % 3
	mid := (lo + hi) / 2
	t.selectMedian(lo, hi, mid, axis)
	t.build(lo, mid, depth+1)
	t.build(mid+1, hi, depth+1)
}

// selectMedian partially sorts idx[lo:hi] so the element at mid is the
// median along axis (quickselect).
func (t *Tree) selectMedian(lo, hi, mid, axis int) {
	for hi-lo > 1 {
		// median-of-three pivot
		p := t.pivot(lo, hi, axis)
		i, j := lo, hi-1
		for i <= j {
			for coord(t.pts[t.idx[i]], axis) < p {
				i++
			}
			for coord(t.pts[t.idx[j]], axis) > p {
				j--
			}
			if i <= j {
				t.idx[i], t.idx[j] = t.idx[j], t.idx[i]
				i++
				j--
			}
		}
		switch {
		case mid <= j:
			hi = j + 1
		case mid >= i:
			lo = i
		default:
			return
		}
	}
}

func (t *Tree) pivot(lo, hi, axis int) float64 {
	a := coord(t.pts[t.idx[lo]], axis)
	b := coord(t.pts[t.idx[(lo+hi)/2]], axis)
	c := coord(t.pts[t.idx[hi-1]], axis)
	// median of a, b, c
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// Nearest returns the index of the point closest to q and the squared
// distance. It returns (-1, +Inf) for an empty tree.
func (t *Tree) Nearest(q geom.Vec3) (int, float64) {
	best := -1
	bestD := inf()
	t.nearest(q, 0, len(t.pts), 0, &best, &bestD)
	return best, bestD
}

func inf() float64 { return math.Inf(1) }

func (t *Tree) nearest(q geom.Vec3, lo, hi, depth int, best *int, bestD *float64) {
	if hi-lo <= t.leafSize {
		for _, i := range t.idx[lo:hi] {
			d := t.pts[i].Sub(q).Norm2()
			if d < *bestD {
				*bestD = d
				*best = int(i)
			}
		}
		return
	}
	axis := depth % 3
	mid := (lo + hi) / 2
	mp := t.pts[t.idx[mid]]
	d := mp.Sub(q).Norm2()
	if d < *bestD {
		*bestD = d
		*best = int(t.idx[mid])
	}
	delta := coord(q, axis) - coord(mp, axis)
	if delta < 0 {
		t.nearest(q, lo, mid, depth+1, best, bestD)
		if delta*delta < *bestD {
			t.nearest(q, mid+1, hi, depth+1, best, bestD)
		}
	} else {
		t.nearest(q, mid+1, hi, depth+1, best, bestD)
		if delta*delta < *bestD {
			t.nearest(q, lo, mid, depth+1, best, bestD)
		}
	}
}
