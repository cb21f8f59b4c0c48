// Tile sizing for the distributed renderer. The output grid is cut into
// contiguous column blocks whose *predicted* marching cost is balanced,
// not their column count: marching a column costs roughly n^β in the local
// particle count (the same power law internal/model fits for interpolation
// work), so clustered catalogs make equal-width tiles badly imbalanced.
package distrender

import (
	"godtfe/internal/geom"
	"godtfe/internal/model"
	"godtfe/internal/render"
)

// costBeta is the marching-cost exponent of tile balancing: the β the PR 4
// recalibration fitted for per-item interpolation work (EXPERIMENTS.md
// fig11), which tracks tet traversal density.
const costBeta = 0.54

// columnWeights predicts the relative marching cost of each grid column
// from the catalog's x-histogram: columns over dense regions traverse more
// tetrahedra per line of sight.
func columnWeights(spec render.Spec, pts []geom.Vec3) []float64 {
	counts := make([]float64, spec.Nx)
	for _, p := range pts {
		i := int((p.X - spec.Min.X) / spec.Cell)
		if i < 0 {
			i = 0
		}
		if i >= spec.Nx {
			i = spec.Nx - 1
		}
		counts[i]++
	}
	m := model.PowerModel{Alpha: 1, Beta: costBeta}
	w := make([]float64, spec.Nx)
	for i, n := range counts {
		w[i] = m.Predict(1 + n)
	}
	return w
}

// makeTiles partitions the spec's columns into n contiguous tiles. With
// even=true the split is uniform (equal column counts, remainder spread
// left); otherwise tile boundaries are chosen greedily so each tile's
// predicted marching cost (columnWeights) is as close as possible to an
// equal share. Every tile holds at least one column, so n is clamped to
// spec.Nx. pts may be nil, which degrades to the even split.
func makeTiles(spec render.Spec, pts []geom.Vec3, n int, even bool) []render.Tile {
	if n < 1 {
		n = 1
	}
	if n > spec.Nx {
		n = spec.Nx
	}
	if even || len(pts) == 0 {
		tiles := make([]render.Tile, n)
		base, rem := spec.Nx/n, spec.Nx%n
		i := 0
		for k := range tiles {
			w := base
			if k < rem {
				w++
			}
			tiles[k] = render.Tile{I0: i, I1: i + w}
			i += w
		}
		return tiles
	}
	w := columnWeights(spec, pts)
	var total float64
	for _, v := range w {
		total += v
	}
	tiles := make([]render.Tile, 0, n)
	i0, acc := 0, 0.0
	for k := 0; k < n; k++ {
		// Greedy: extend the tile until its cost reaches the remaining
		// average, but always leave one column per remaining tile.
		target := (total - acc) / float64(n-k)
		i1 := i0
		var cost float64
		for i1 < spec.Nx-(n-k-1) {
			cost += w[i1]
			i1++
			if cost >= target && i1 > i0 {
				break
			}
		}
		if i1 == i0 {
			i1 = i0 + 1 // degenerate weights: force progress
		}
		acc += cost
		tiles = append(tiles, render.Tile{I0: i0, I1: i1})
		i0 = i1
	}
	tiles[len(tiles)-1].I1 = spec.Nx
	return tiles
}
