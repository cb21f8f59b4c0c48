package geom

import (
	"math/rand"
	"sort"
	"testing"
)

// TestHilbertCellHamiltonian is the defining property of the Hilbert curve:
// visiting every cell of a 2^b-per-side grid in key order is a Hamiltonian
// path on the grid graph — consecutive cells differ by exactly one step
// along exactly one axis. The grid is the corner sub-cube of the 12-bit
// grid that the first 8^b keys cover.
func TestHilbertCellHamiltonian(t *testing.T) {
	const bits = 4
	const side = 1 << bits
	type cell struct {
		key     uint64
		x, y, z uint32
	}
	cells := make([]cell, 0, side*side*side)
	seen := make(map[uint64]bool)
	for x := uint32(0); x < side; x++ {
		for y := uint32(0); y < side; y++ {
			for z := uint32(0); z < side; z++ {
				k := hilbertFromCell(x, y, z)
				if k >= side*side*side {
					t.Fatalf("key %d out of range for cell (%d,%d,%d)", k, x, y, z)
				}
				if seen[k] {
					t.Fatalf("duplicate key %d at cell (%d,%d,%d)", k, x, y, z)
				}
				seen[k] = true
				cells = append(cells, cell{k, x, y, z})
			}
		}
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].key < cells[j].key })
	abs := func(a, b uint32) uint32 {
		if a > b {
			return a - b
		}
		return b - a
	}
	for i := 1; i < len(cells); i++ {
		a, b := cells[i-1], cells[i]
		d := abs(a.x, b.x) + abs(a.y, b.y) + abs(a.z, b.z)
		if d != 1 {
			t.Fatalf("cells at keys %d,%d are L1-distance %d apart, want 1", a.key, b.key, d)
		}
	}
}

// TestHilbertOrderPermutation checks HilbertOrder returns a valid
// permutation with duplicate points kept in input order.
func TestHilbertOrderPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := make([]Vec3, 500)
	for i := range pts {
		pts[i] = Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
	}
	// Inject duplicates.
	for i := 0; i < 50; i++ {
		pts[400+i] = pts[i]
	}
	order := HilbertOrder(pts)
	if len(order) != len(pts) {
		t.Fatalf("order length %d, want %d", len(order), len(pts))
	}
	seen := make([]bool, len(pts))
	for _, i := range order {
		if i < 0 || i >= len(pts) || seen[i] {
			t.Fatalf("not a permutation: index %d", i)
		}
		seen[i] = true
	}
	pos := make([]int, len(pts))
	for rank, i := range order {
		pos[i] = rank
	}
	for i := 0; i < 50; i++ {
		if pos[i] > pos[400+i] {
			t.Errorf("duplicate pair (%d,%d) visited out of input order", i, 400+i)
		}
	}
}

// TestHilbertLocalityBeatsMorton quantifies the motivation for the Hilbert
// insertion order: the total spatial path length of visiting random points
// along the curve must stay below the Z-order (Morton) path, which takes
// long jumps at octant boundaries. The Morton figure for this point set was
// measured with the 21-bit MortonOrder this package carried until it had no
// caller left.
func TestHilbertLocalityBeatsMorton(t *testing.T) {
	const mortonPath = 969.251
	rng := rand.New(rand.NewSource(12345))
	pts := make([]Vec3, 20000)
	for i := range pts {
		pts[i] = Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
	}
	order := HilbertOrder(pts)
	h := 0.0
	for i := 1; i < len(order); i++ {
		h += pts[order[i]].Sub(pts[order[i-1]]).Norm()
	}
	if h >= mortonPath {
		t.Fatalf("Hilbert path length %.3f not shorter than Morton %.3f", h, mortonPath)
	}
	t.Logf("path length: hilbert=%.3f morton=%.3f (ratio %.3f)", h, mortonPath, h/mortonPath)
}
