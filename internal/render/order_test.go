package render

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"godtfe/internal/delaunay"
	"godtfe/internal/geom"
	"godtfe/internal/grid"
	"godtfe/internal/synth"
)

// orderSpec is a grid whose sides are not multiples of the cell loop's
// block (bandRows×chunkCols), so every band and chunk shape occurs: full
// and short chunks, full and short bands.
func orderSpec(samples int) Spec {
	return Spec{
		Min: geom.Vec2{X: -0.02, Y: -0.02},
		Nx:  37, Ny: 23, Cell: 1.04 / 37,
		Nz: 24, Samples: samples, Seed: 3,
	}
}

// sameBits reports the first cell of want's columns cols (global indices)
// whose bits got, holding global column c at c-base, does not repeat.
func sameBits(got, want *grid.Grid2D, base int, cols []int) error {
	for j := 0; j < want.Ny; j++ {
		for _, i := range cols {
			if g, w := got.At(i-base, j), want.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Errorf("cell (%d,%d) = %v, want %v", i, j, g, w)
			}
		}
	}
	return nil
}

func colRange(i0, i1 int) []int {
	cols := make([]int, 0, i1-i0)
	for i := i0; i < i1; i++ {
		cols = append(cols, i)
	}
	return cols
}

func totalSteps(stats []WorkerStat) int64 {
	var n int64
	for _, s := range stats {
		n += s.Steps
	}
	return n
}

// TestBlockedOrderMatchesColumns checks the cell loop's visiting order
// against a reference built cell by cell with Column in row-major order:
// gapped runs, a tile that does not start at column 0 and a whole render,
// at one and four lines a cell on one and three workers, and lines clipped
// from a floor inside the mesh (each started there, as the cell loop
// starts it) on one, two and four workers, must give the reference's bits
// for every cell they cover and the reference's summed Steps for those
// cells.
func TestBlockedOrderMatchesColumns(t *testing.T) {
	box := geom.AABB{Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	m := NewMarcher(fieldFor(t, synth.HaloSet(1500, box, synth.DefaultHaloSpec(), 4)))
	ctx := context.Background()
	floor := orderSpec(1)
	floor.ZMin, floor.ZMax = 0.35, 0.8
	for _, c := range []struct {
		spec    Spec
		workers []int
	}{{orderSpec(1), []int{1, 3}}, {orderSpec(4), []int{1, 3}}, {floor, []int{1, 2, 4}}} {
		spec, samples := c.spec, c.spec.Samples
		fl := newFloorIndex(m, spec)
		ref := spec.Grid()
		colSteps := make([]int64, spec.Nx) // reference steps of each column, all rows
		var outcomes OutcomeCounts
		var hullSteps, steps int64
		for j := 0; j < spec.Ny; j++ {
			for i := 0; i < spec.Nx; i++ {
				sigma, n := columnCell(m, fl, spec, i, j, &outcomes)
				ref.Set(i, j, sigma)
				colSteps[i] += n
				_, hn := columnCell(m, nil, spec, i, j, new(OutcomeCounts))
				hullSteps, steps = hullSteps+hn, steps+n
			}
		}
		if (fl != nil) != (steps < hullSteps) {
			t.Fatalf("floor %v: %d steps from the floor, %d from the hull", spec.ZMin, steps, hullSteps)
		}
		stepsOf := func(cols []int) int64 {
			var n int64
			for _, i := range cols {
				n += colSteps[i]
			}
			return n
		}
		for _, workers := range c.workers {
			name := fmt.Sprintf("samples=%d/zmin=%v/workers=%d", samples, spec.ZMin, workers)
			check := func(form string, got *grid.Grid2D, base int, cols []int, stats []WorkerStat, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s %s: %v", name, form, err)
				}
				if err := sameBits(got, ref, base, cols); err != nil {
					t.Errorf("%s %s: %v", name, form, err)
				}
				if got, want := totalSteps(stats), stepsOf(cols); got != want {
					t.Errorf("%s %s: %d steps, want %d", name, form, got, want)
				}
			}

			runs := []Tile{{I0: 3, I1: 9}, {I0: 20, I1: 37}}
			dst := spec.Grid()
			stats, err := m.RenderRunsCtx(ctx, spec, runs, dst, workers)
			check("runs", dst, 0, append(colRange(3, 9), colRange(20, 37)...), stats, err)

			tile := Tile{I0: 5, I1: 30}
			g, stats, err := m.RenderTileCtx(ctx, spec, tile, workers)
			check("tile", g, tile.I0, colRange(tile.I0, tile.I1), stats, err)

			g, stats, err = m.Render(spec, workers, ScheduleDynamic)
			check("whole", g, 0, colRange(0, spec.Nx), stats, err)
			if got := TotalOutcomes(stats); got != outcomes {
				t.Errorf("%s whole: %v, want %v", name, got, outcomes)
			}
		}
	}
}

// TestWalkerOrderMatchesRowChain checks the walking baseline's grid and
// summed Steps against a per-row chain of column walks in row-major order:
// each row draws from its own stream and seeds every line from the line
// before it. A cell loop that handed one row's columns to two samplers, or
// out of order, restarts or reorders that chain and moves Steps.
func TestWalkerOrderMatchesRowChain(t *testing.T) {
	w := NewWalker(fieldFor(t, randPoints(1200, 8)))
	for _, samples := range []int{1, 4} {
		spec := orderSpec(samples)
		ref := spec.Grid()
		var refSteps int64
		for j := 0; j < spec.Ny; j++ {
			seed := delaunay.NoTet
			rng := splitmix64(uint64(j)+1) | 1
			for i := 0; i < spec.Nx; i++ {
				var acc float64
				for s := 0; s < samples; s++ {
					sigma, n, last, _ := w.column(cellLine(spec, i, j, s), w.zlo, w.zhi, spec.Nz, seed, &rng)
					seed = last
					refSteps += int64(n)
					acc += sigma
				}
				ref.Set(i, j, acc/float64(samples))
			}
		}
		for _, workers := range []int{1, 3} {
			g, stats, err := w.Render(spec, workers)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameBits(g, ref, 0, colRange(0, spec.Nx)); err != nil {
				t.Errorf("samples=%d workers=%d: %v", samples, workers, err)
			}
			if got := totalSteps(stats); got != refSteps {
				t.Errorf("samples=%d workers=%d: %d steps, want %d", samples, workers, got, refSteps)
			}
		}
	}
}

// TestRowSamplerSeesItsRow pins the invariant a stateful row sampler relies
// on: sampleRuns calls row(j) once per row, and that sampler sees every
// column of the runs in its row, ascending, on one worker.
func TestRowSamplerSeesItsRow(t *testing.T) {
	spec := orderSpec(1)
	runs := []Tile{{I0: 3, I1: 9}, {I0: 20, I1: 37}}
	want := append(colRange(3, 9), colRange(20, 37)...)
	for _, workers := range []int{1, 3} {
		var mu sync.Mutex
		calls := make([]int, spec.Ny)
		cols := make([][]int, spec.Ny)
		owner := make([]*WorkerStat, spec.Ny)
		split := make([]bool, spec.Ny)
		row := func(j int) sampler {
			mu.Lock()
			calls[j]++
			mu.Unlock()
			return func(xi geom.Vec2, st *WorkerStat) float64 {
				// No other sampler touches row j's slots.
				if owner[j] == nil {
					owner[j] = st
				}
				split[j] = split[j] || owner[j] != st
				cols[j] = append(cols[j], int(math.Floor((xi.X-spec.Min.X)/spec.Cell)))
				return 0
			}
		}
		if _, err := sampleRuns(context.Background(), spec, runs, spec.Grid(), 0, workers, row); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < spec.Ny; j++ {
			if calls[j] != 1 || split[j] || !slices.Equal(cols[j], want) {
				t.Fatalf("workers=%d row %d: row called %d times, split over workers %v, columns %v; want once, on one worker, %v",
					workers, j, calls[j], split[j], cols[j], want)
			}
		}
	}
}
