package pipeline

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"godtfe/internal/geom"
	"godtfe/internal/synth"
)

// cellCatalogs are the point sets the cell index is checked on: clustered,
// a lattice whose planes fall on cell faces and on the query boxes' faces,
// duplicates, none, one point, and a flat set with no extent along z.
func cellCatalogs() map[string][]geom.Vec3 {
	var lattice, flat, dups []geom.Vec3
	for i := 0; i <= 20; i++ {
		for j := 0; j <= 20; j++ {
			for k := 0; k <= 20; k++ {
				lattice = append(lattice, geom.Vec3{X: latticeCoord(i), Y: latticeCoord(j), Z: latticeCoord(k)})
			}
			flat = append(flat, geom.Vec3{X: latticeCoord(i), Y: latticeCoord(j), Z: 0.3})
		}
	}
	for i := 0; i < 300; i++ {
		dups = append(dups, geom.Vec3{X: 0.5, Y: 0.25, Z: 0.75}, geom.Vec3{X: 0.1 * float64(i%4), Y: 0.5, Z: 0.5})
	}
	return map[string][]geom.Vec3{
		"clustered": synth.HaloSet(4000, unitBox(), synth.DefaultHaloSpec(), 41),
		"lattice":   lattice,
		"duplicate": dups,
		"empty":     nil,
		"one":       {{X: 0.4, Y: 0.6, Z: 0.2}},
		"flat":      flat,
	}
}

// latticeCoord is the i-th lattice plane, 0.05 apart: every other one is a
// cell face of a side-0.1 index over the lattice.
func latticeCoord(i int) float64 { return 0.05 * float64(i) }

// queryBoxes are random cubes, some reaching beyond the points, cubes whose
// faces are lattice planes, single lattice points, a box around
// everything, one beside everything and an inverted one.
func queryBoxes(rng *rand.Rand) []geom.AABB {
	var out []geom.AABB
	for q := 0; q < 60; q++ {
		c := geom.Vec3{X: 1.6*rng.Float64() - 0.3, Y: 1.6*rng.Float64() - 0.3, Z: 1.6*rng.Float64() - 0.3}
		h := 0.3 * rng.Float64()
		out = append(out, geom.AABB{Min: c.Sub(geom.Vec3{X: h, Y: h, Z: h}), Max: c.Add(geom.Vec3{X: h, Y: h, Z: h})})
	}
	for q := 0; q < 60; q++ {
		i, j, k := rng.Intn(21), rng.Intn(21), rng.Intn(21)
		w := rng.Intn(5)
		lo := geom.Vec3{X: latticeCoord(i), Y: latticeCoord(j), Z: latticeCoord(k)}
		hi := geom.Vec3{X: latticeCoord(i + w), Y: latticeCoord(j + w), Z: latticeCoord(k + w)}
		out = append(out, geom.AABB{Min: lo, Max: hi})
	}
	return append(out,
		geom.AABB{Min: geom.Vec3{X: -5, Y: -5, Z: -5}, Max: geom.Vec3{X: 5, Y: 5, Z: 5}},
		geom.AABB{Min: geom.Vec3{X: 2, Y: 0, Z: 0}, Max: geom.Vec3{X: 3, Y: 1, Z: 1}},
		geom.AABB{Min: geom.Vec3{X: 0.6, Y: 0.6, Z: 0.6}, Max: geom.Vec3{X: 0.4, Y: 0.4, Z: 0.4}},
	)
}

// TestCellIndexMatchesBruteForce: InBox returns exactly the indices of the
// points a scan of the whole catalog finds in the closed box, for every
// catalog at several cell sides.
func TestCellIndexMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	boxes := queryBoxes(rng)
	for name, pts := range cellCatalogs() {
		for _, side := range []float64{0.1, 0.09, 0.37, 2, 1e-6} {
			ci := newCellIndex(pts, side)
			var got []int32
			for _, b := range boxes {
				var want []int32
				for i, p := range pts {
					if b.Contains(p) {
						want = append(want, int32(i))
					}
				}
				got = ci.InBox(b, got[:0])
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Fatalf("%s side %v box %+v: InBox %d points, brute force %d", name, side, b, len(got), len(want))
				}
			}
		}
	}
}

// TestCellIndexCellsLinear: however small the side, the index holds no
// more cells than points.
func TestCellIndexCellsLinear(t *testing.T) {
	for _, n := range []int{1, 2, 1000, 100_000} {
		pts := synth.HaloSet(n, unitBox(), synth.DefaultHaloSpec(), 43)
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			ci := newCellIndex(pts, 1e-9)
			if cells := len(ci.start) - 1; cells > n {
				t.Fatalf("%d cells for %d points", cells, n)
			}
			all := geom.AABB{Min: geom.Vec3{X: -1, Y: -1, Z: -1}, Max: geom.Vec3{X: 2, Y: 2, Z: 2}}
			if got := len(ci.InBox(all, nil)); got != n {
				t.Fatalf("InBox of everything holds %d points, want %d", got, n)
			}
		})
	}
}
