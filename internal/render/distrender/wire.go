// Wire protocol of the distributed renderer. Every message is a plain
// struct carried by the mpi wire codec: setup (spec + tiling) once, then
// batches to the workers, each with the slab of rank 0's mesh its tiles
// cross, and one tileResult per marched tile back. A truncated or mistyped
// message is a decode error that leaves the receiver untouched, so nothing
// is ever half-accepted.
package distrender

import (
	"godtfe/internal/grid"
	"godtfe/internal/render"
)

// Message tags. The pipeline owns 100–103; the distributed renderer's
// block starts at 120.
const (
	tagSetup  = 120 // coordinator → worker: setupMsg (once)
	tagBatch  = 123 // coordinator → worker: assignBatch
	tagResult = 124 // worker → coordinator: tileResult
)

// setupMsg is the one-shot message that primes every worker: the render
// spec and the authoritative tiling, a few bytes a tile. The mesh travels
// with the batches.
type setupMsg struct {
	Spec    render.Spec
	Tiles   []render.Tile
	Workers int
}

// tileResult is one marched tile, as a rank holds it in memory and as it
// travels to the coordinator, one message a tile: the tile's own grid
// (exactly its columns of the tiling, I1-I0 wide) and the tile-local worker
// stats (worker ids 0..W-1, re-based at the gather). The column span is not
// carried: every rank reads it from the setup tiling by index. Results are
// idempotent — the coordinator dedupes tiles first-wins — so a tile marched
// twice after a re-dispatch is always safe.
type tileResult struct {
	Tile  int
	Rank  int    // the rank that marched it
	Err   string // non-empty: the tile failed on that rank; Grid is nil
	Grid  *grid.Grid2D
	Stats []render.WorkerStat
}

// assignBatch is the assignment unit: indices into the setup tiling and
// the slab of rank 0's mesh those tiles cross (render.CutSlab, about 37
// bytes a tet it carries), or Shutdown with neither. The coordinator hands
// each rank its static share up front, a contiguous block of tiles;
// recovery re-dispatches arrive as later single-tile batches with their
// own slab.
type assignBatch struct {
	Shutdown bool
	Tiles    []int
	Slab     *render.Slab
}
