// Wire protocol of the distributed renderer. Every message is a plain
// struct carried by the mpi wire codec: batches to the workers, each
// self-contained (the spec, the worker count, its tiles' indices and
// column spans, and the slab of rank 0's mesh they cross), and one
// tileResult per marched tile back. A truncated or mistyped message is a
// decode error that leaves the receiver untouched, so nothing is ever
// half-accepted.
package distrender

import (
	"godtfe/internal/grid"
	"godtfe/internal/render"
)

// Message tags. The pipeline owns 100–103; the distributed renderer's
// block starts at 120.
const (
	tagBatch  = 123 // coordinator → worker: assignBatch
	tagResult = 124 // worker → coordinator: tileResult
)

// tileResult is one marched tile, as a rank holds it in memory and as it
// travels to the coordinator, one message a tile: the tile's own grid
// (exactly its columns of the tiling, I1-I0 wide) and the tile-local worker
// stats (worker ids 0..W-1, re-based at the gather). The column span is not
// carried back: the coordinator reads it from its own tiling by index.
// Results are idempotent — the coordinator dedupes tiles first-wins — so a
// tile marched twice after a re-dispatch is always safe.
type tileResult struct {
	Tile  int
	Rank  int    // the rank that marched it
	Err   string // non-empty: the tile failed on that rank; Grid is nil
	Grid  *grid.Grid2D
	Stats []render.WorkerStat
}

// assignBatch is the assignment unit and the only message a worker is
// sent: the render spec, each rank's march goroutine count, the tiles to
// march and the slab of rank 0's mesh they cross (render.CutSlab, about
// 37 bytes a tet it carries), or Shutdown with none of them. The
// coordinator hands each rank its static share up front, a contiguous
// block of tiles; recovery re-dispatches arrive as later single-tile
// batches with their own slab.
type assignBatch struct {
	Shutdown bool
	Spec     render.Spec
	Workers  int
	Tiles    []batchTile
	Slab     *render.Slab
}

// batchTile is one tile of a batch: its index in rank 0's tiling, which
// its result echoes, and its column span, which the worker marches.
type batchTile struct {
	K    int
	Span render.Tile
}
