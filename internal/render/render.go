// Package render implements the paper's surface-density grid-rendering
// kernels:
//
//   - Marcher: the paper's contribution (Section IV-A) — per 2D grid cell,
//     march the line of sight through the Delaunay mesh with
//     Plücker-coordinate ray–tetrahedron intersections and accumulate the
//     exact per-tet line integral (eq 12). No intermediate 3D grid.
//   - Walker: the DTFE-public-software baseline (Section III-C) — locate
//     every 3D grid sample by walking, interpolate, then sum along z (eq 4).
//   - ZeroOrder: the TESS/DENSE baseline — zero-order (Voronoi-cell
//     constant) density at every 3D grid sample via nearest-particle
//     lookup, summed along z.
//
// All renderers run one cell loop, sampleRuns, on a shared-memory worker
// pool with per-worker busy time accounting (the quantity compared in the
// paper's Fig 6): workers draw bands of rows and visit each band in
// 16×16-cell blocks, and each kernel supplies only the integral along one
// line of sight. Only Marcher.Render and Marcher.RenderCtx take a Schedule.
package render

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"godtfe/internal/geom"
	"godtfe/internal/grid"
)

// Spec describes the output 2D grid and the integration domain.
type Spec struct {
	// Min is the lower corner of the 2D grid; the grid has Nx×Ny square
	// cells of edge Cell.
	Min  geom.Vec2
	Nx   int
	Ny   int
	Cell float64

	// ZMin/ZMax bound the line-of-sight integration. When ZMin >= ZMax the
	// marching kernel integrates over the full hull chord, and the 3D-grid
	// kernels fall back to the triangulation's z extent.
	ZMin, ZMax float64

	// Nz is the number of 3D samples per column for the 3D-grid kernels
	// (Walker, ZeroOrder). The marching kernel does not use it.
	Nz int

	// Samples is the number of Monte Carlo (x,y)-jittered lines per 2D
	// cell (paper eq 5); 0 or 1 means a single line through the cell
	// center.
	Samples int

	// Seed seeds the Monte Carlo jitter.
	Seed int64
}

// Validate reports configuration errors: a grid shape that is not positive
// and finite, a corner that is not finite, a z bound that is NaN (±Inf
// bounds are fine).
func (s *Spec) Validate(need3D bool) error {
	if s.Nx <= 0 || s.Ny <= 0 || !(s.Cell > 0) || math.IsInf(s.Cell, 1) || !s.Min.IsFinite() || math.IsNaN(s.ZMin) || math.IsNaN(s.ZMax) {
		return fmt.Errorf("render: grid %dx%d of cell %v from %v, z in [%v, %v]: the shape must be positive and finite, the corner finite, the z bounds numbers", s.Nx, s.Ny, s.Cell, s.Min, s.ZMin, s.ZMax)
	}
	if need3D && s.Nz <= 0 {
		return errors.New("render: 3D-grid kernel requires Nz > 0")
	}
	return nil
}

// Grid allocates the output grid for the spec.
func (s *Spec) Grid() *grid.Grid2D { return grid.NewGrid2D(s.Nx, s.Ny, s.Min, s.Cell) }

// Tile is a contiguous block of grid columns [I0, I1) of a Spec, the unit
// of distributed-render decomposition (grid sharding follows the DTFE
// public software: partition the output grid, not the tessellation).
// Column indices are global: a tile render evaluates exactly the cells the
// full render would, so a stitched set of tiles is byte-identical to one
// whole-grid render.
type Tile struct {
	I0, I1 int
}

// Width returns the number of columns in the tile.
func (t Tile) Width() int { return t.I1 - t.I0 }

// Validate checks the tile against the spec's column range.
func (t Tile) Validate(s *Spec) error {
	if t.I0 < 0 || t.I1 > s.Nx || t.I0 >= t.I1 {
		return fmt.Errorf("render: tile [%d,%d) outside grid columns [0,%d)", t.I0, t.I1, s.Nx)
	}
	return nil
}

// TileGrid allocates the output grid for one tile of the spec: Width×Ny
// cells whose lower corner sits at the tile's first column.
func (s *Spec) TileGrid(t Tile) *grid.Grid2D {
	min := geom.Vec2{X: s.Min.X + float64(t.I0)*s.Cell, Y: s.Min.Y}
	if t.I0 == 0 {
		min.X = s.Min.X
	}
	return grid.NewGrid2D(t.Width(), s.Ny, min, s.Cell)
}

// WorkerStat records one worker's share of a render, the paper's Fig 6
// quantity.
type WorkerStat struct {
	Worker int
	Busy   time.Duration
	Cells  int
	Steps  int64 // tetrahedra visited (marching) or located (walking)

	// Columns classifies every integrated line of sight (one per Monte
	// Carlo sample) by how its march ended, so degraded columns are
	// accounted, never silent.
	Columns OutcomeCounts
}

// ColumnOutcome classifies how a single line-of-sight integration ended.
type ColumnOutcome uint8

const (
	// ColumnClean: the march succeeded without perturbation.
	ColumnClean ColumnOutcome = iota
	// ColumnPerturbed: the march met a Plücker degeneracy and succeeded
	// after one or more Perturb retries (paper Fig 2).
	ColumnPerturbed
	// ColumnFallback: the perturbation budget ran out and the march was
	// restarted with a second, larger perturbation ladder, which succeeded.
	ColumnFallback
	// ColumnAbandoned: every attempt failed; the reported Σ is a partial
	// (lower-bound) integral and the column counts as lost flux.
	ColumnAbandoned
	// ColumnOutsideSlab: the march reached a tet its slab does not carry;
	// Σ is NaN and the render fails with ErrOutsideSlab (it counts as
	// abandoned).
	ColumnOutsideSlab
)

// String names the outcome for logs.
func (o ColumnOutcome) String() string {
	switch o {
	case ColumnClean:
		return "clean"
	case ColumnPerturbed:
		return "perturbed"
	case ColumnFallback:
		return "fallback"
	case ColumnAbandoned:
		return "abandoned"
	case ColumnOutsideSlab:
		return "outside-slab"
	}
	return fmt.Sprintf("ColumnOutcome(%d)", uint8(o))
}

// OutcomeCounts aggregates per-column outcomes across a render.
type OutcomeCounts struct {
	Clean, Perturbed, Fallback, Abandoned int64
}

// Note counts one outcome.
func (o *OutcomeCounts) Note(c ColumnOutcome) {
	switch c {
	case ColumnClean:
		o.Clean++
	case ColumnPerturbed:
		o.Perturbed++
	case ColumnFallback:
		o.Fallback++
	default:
		o.Abandoned++
	}
}

// Add accumulates other into o.
func (o *OutcomeCounts) Add(other OutcomeCounts) {
	o.Clean += other.Clean
	o.Perturbed += other.Perturbed
	o.Fallback += other.Fallback
	o.Abandoned += other.Abandoned
}

// Total is the number of columns counted.
func (o OutcomeCounts) Total() int64 {
	return o.Clean + o.Perturbed + o.Fallback + o.Abandoned
}

// Degraded is the number of columns that needed any recourse at all.
func (o OutcomeCounts) Degraded() int64 { return o.Perturbed + o.Fallback + o.Abandoned }

func (o OutcomeCounts) String() string {
	return fmt.Sprintf("columns{clean=%d perturbed=%d fallback=%d abandoned=%d}",
		o.Clean, o.Perturbed, o.Fallback, o.Abandoned)
}

// TotalOutcomes sums the per-worker column outcome counters.
func TotalOutcomes(stats []WorkerStat) OutcomeCounts {
	var o OutcomeCounts
	for _, s := range stats {
		o.Add(s.Columns)
	}
	return o
}

// MergeWorkerStats accumulates tile-local worker stats into a merged
// per-global-worker view. Tile renders stamp worker ids 0..W-1 on every
// rank, so a gather must re-base them before merging or distinct ranks'
// workers collide; base is the first global id for this batch (rank×W for
// rank-local batches). Stats for the same global worker accumulate across
// tiles. merged may be nil; the updated map is returned.
func MergeWorkerStats(merged map[int]*WorkerStat, stats []WorkerStat, base int) map[int]*WorkerStat {
	if merged == nil {
		merged = make(map[int]*WorkerStat)
	}
	for _, s := range stats {
		id := base + s.Worker
		m, ok := merged[id]
		if !ok {
			m = &WorkerStat{Worker: id}
			merged[id] = m
		}
		m.Busy += s.Busy
		m.Cells += s.Cells
		m.Steps += s.Steps
		m.Columns.Add(s.Columns)
	}
	return merged
}

// FlattenWorkerStats converts a MergeWorkerStats map into a slice sorted
// by global worker id.
func FlattenWorkerStats(merged map[int]*WorkerStat) []WorkerStat {
	out := make([]WorkerStat, 0, len(merged))
	for _, s := range merged {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Worker < out[j].Worker })
	return out
}

// Schedule names how grid cells are distributed over workers. There is
// one: ScheduleDynamic, which every render uses. Only Marcher.Render and
// Marcher.RenderCtx still take a Schedule, because the end-to-end harness
// calls them with one.
type Schedule int

// ScheduleDynamic hands out bands of consecutive rows from a shared atomic
// counter, balancing naturally.
const ScheduleDynamic Schedule = 0

// sampler integrates one line of sight through xi and returns its surface
// density, noting its work (Steps) and outcome (Columns) in st.
type sampler func(xi geom.Vec2, st *WorkerStat) float64

// bandRows×chunkCols is the cell loop's block. A worker draws a band of
// bandRows rows and visits it chunkCols columns at a time, every row of the
// band per chunk, so the tets a chunk's lines cross are still in cache when
// the band's next row crosses them; a whole row of a large grid touches more
// tets than L2 holds. 16×16 lies in the fast region of a sweep of block
// shapes (DESIGN §18).
const (
	bandRows  = 16
	chunkCols = 16
)

// sampleRuns is the one cell loop of every renderer. It evaluates the
// columns of runs, global column indices of spec, in every row into out,
// whose column 0 holds global column outBase (0 for a full-spec grid, the
// tile's first column for a tile grid). Workers draw bands of consecutive
// rows from a shared counter, call row(j) once per row j of the band, and
// walk each run chunkCols columns at a time: per chunk, the band's rows in
// order, each row's columns of the chunk ascending. A row's sampler thus
// sees its row's columns in ascending order on one worker, which a stateful
// sampler (the Walker's seed chain) relies on. A cell is the mean of
// spec.Samples lines through its global-index center, jittered by
// (Seed, i, j, s) when Samples > 1, so a cell's bits do not depend on the
// run, tile, block or worker that evaluates it.
//
// Cancellation is polled once per cell through an atomic flag that a
// context.AfterFunc callback sets, so an uncancellable context costs
// nothing. Once it is set, every worker stops and sampleRuns returns the
// context's error; out is then partial and must be discarded.
func sampleRuns(ctx context.Context, spec Spec, runs []Tile, out *grid.Grid2D, outBase, workers int, row func(j int) sampler) ([]WorkerStat, error) {
	var cancelled *atomic.Bool // nil when ctx cannot be cancelled
	if ctx.Done() != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cancelled = new(atomic.Bool)
		stop := context.AfterFunc(ctx, func() { cancelled.Store(true) })
		defer stop()
	}
	samples := max(spec.Samples, 1)
	stats := make([]WorkerStat, max(workers, 1))
	band := bandHeight(spec.Ny, len(stats))
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := range stats {
		stats[w].Worker = w
		wg.Add(1)
		go func(st *WorkerStat) {
			defer wg.Done()
			start := time.Now()
			var samplers [bandRows]sampler
		bands:
			for j0 := (int(next.Add(1)) - 1) * band; j0 < spec.Ny; j0 = (int(next.Add(1)) - 1) * band {
				rows := samplers[:min(band, spec.Ny-j0)]
				for k := range rows {
					rows[k] = row(j0 + k)
				}
				for _, r := range runs {
					for c0 := r.I0; c0 < r.I1; c0 += chunkCols {
						c1 := min(c0+chunkCols, r.I1)
						for k, sample := range rows {
							j := j0 + k
							for i := c0; i < c1; i++ {
								if cancelled != nil && cancelled.Load() {
									break bands
								}
								var acc float64
								for s := 0; s < samples; s++ {
									// The exact expression Grid2D.Center
									// uses for the whole grid.
									xi := geom.Vec2{
										X: spec.Min.X + (float64(i)+0.5)*spec.Cell,
										Y: spec.Min.Y + (float64(j)+0.5)*spec.Cell,
									}
									if samples > 1 {
										xi.X += (jitter(spec.Seed, i, j, s, 0) - 0.5) * spec.Cell
										xi.Y += (jitter(spec.Seed, i, j, s, 1) - 0.5) * spec.Cell
									}
									acc += sample(xi, st)
								}
								out.Set(i-outBase, j, acc/float64(samples))
								st.Cells++
							}
						}
					}
				}
			}
			st.Busy = time.Since(start)
		}(&stats[w])
	}
	wg.Wait()
	if cancelled != nil && cancelled.Load() {
		return stats, ctx.Err()
	}
	return stats, nil
}

// bandHeight is the rows of one band: bandRows, or fewer when the grid is
// too short to give each of several workers four bands, so that a small
// grid still spreads over every worker.
func bandHeight(ny, workers int) int {
	if workers == 1 {
		return bandRows
	}
	return min(bandRows, max(1, ny/(4*workers)))
}

// TotalBusy sums worker busy times (a proxy for total work under
// oversubscription).
func TotalBusy(stats []WorkerStat) time.Duration {
	var d time.Duration
	for _, s := range stats {
		d += s.Busy
	}
	return d
}

// splitmix64 is used for per-cell deterministic Monte Carlo jitter.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// jitter returns a deterministic pseudo-random value in [0,1) for cell
// (i,j), sample s, stream k.
func jitter(seed int64, i, j, s, k int) float64 {
	h := splitmix64(uint64(seed) ^ uint64(i)*0x9e3779b97f4a7c15 ^ uint64(j)*0xc2b2ae3d27d4eb4f ^
		uint64(s)*0x165667b19e3779f9 ^ uint64(k)*0xd6e8feb86659fd93)
	return float64(h>>11) / float64(1<<53)
}
