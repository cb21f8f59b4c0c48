package render

import (
	"testing"

	"godtfe/internal/geom"
	"godtfe/internal/grid"
)

// baselineRender renders spec with either 3D-grid baseline.
func baselineRender(t *testing.T, r interface {
	Render(Spec, int) (*grid.Grid2D, []WorkerStat, error)
}, spec Spec, workers int) *grid.Grid2D {
	t.Helper()
	g, _, err := r.Render(spec, workers)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestBaselinesPinned pins the walking and zero-order baselines' grids to
// committed digests (grid.Checksum: shape, placement and every cell's
// bits) on one fixed catalog, at one and three Monte Carlo lines per cell,
// rendered on one and on three workers. The two baselines are otherwise
// covered only by tolerance tests, so a change to the shared cell loop
// that moved a bit would pass those and fail here.
func TestBaselinesPinned(t *testing.T) {
	pts := randPoints(500, 23)
	f := fieldFor(t, pts)
	kernels := []struct {
		name string
		r    interface {
			Render(Spec, int) (*grid.Grid2D, []WorkerStat, error)
		}
		want [2]uint64 // Samples 1, Samples 3
	}{
		{"walking", NewWalker(f), [2]uint64{0x4b3e6003345a80a0, 0xf0b6192c82a7acc1}},
		{"zeroorder", NewZeroOrder(pts, f.Density), [2]uint64{0x26a2ebab2fc184f4, 0x7395fe0437e3853e}},
	}
	for _, k := range kernels {
		for si, samples := range []int{1, 3} {
			spec := Spec{Min: geom.Vec2{X: 0.1, Y: 0.15}, Nx: 14, Ny: 11, Cell: 0.06, Nz: 40, Samples: samples, Seed: 7}
			for _, workers := range []int{1, 3} {
				got := baselineRender(t, k.r, spec, workers).Checksum()
				if got != k.want[si] {
					t.Errorf("%s samples=%d workers=%d: checksum %#x, want %#x", k.name, samples, workers, got, k.want[si])
				}
			}
		}
	}
}

// TestWalkerStepsIndependentOfWorkers pins the walking baseline's work
// count: each row's walk draws from a stream keyed on the row, so the
// summed Steps, like the grid bits, do not depend on how many workers
// render it or which worker draws which row.
func TestWalkerStepsIndependentOfWorkers(t *testing.T) {
	w := NewWalker(fieldFor(t, randPoints(3000, 5)))
	spec := Spec{Min: geom.Vec2{X: 0.05, Y: 0.05}, Nx: 40, Ny: 40, Cell: 0.0225, Nz: 40}
	run := func(workers int) (int64, uint64) {
		g, stats, err := w.Render(spec, workers)
		if err != nil {
			t.Fatal(err)
		}
		var steps int64
		for _, s := range stats {
			steps += s.Steps
		}
		return steps, g.Checksum()
	}
	wantSteps, wantSum := run(1)
	for rep := 0; rep < 4; rep++ {
		for _, workers := range []int{1, 3} {
			if steps, sum := run(workers); steps != wantSteps || sum != wantSum {
				t.Fatalf("repeat %d, %d workers: %d steps, checksum %#x; one worker: %d steps, checksum %#x",
					rep, workers, steps, sum, wantSteps, wantSum)
			}
		}
	}
}
