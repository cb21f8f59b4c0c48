// Wire protocol of the distributed renderer. Every message is a plain
// struct carried by the mpi wire codec: setup (spec + tiling + the
// replicated catalog) once, then batches, frames and acks. A truncated or
// mistyped message is a decode error that leaves the receiver untouched,
// so nothing is ever half-accepted.
package distrender

import (
	"godtfe/internal/geom"
	"godtfe/internal/grid"
	"godtfe/internal/render"
)

// Message tags. The pipeline owns 100–103; the distributed renderer's
// block starts at 120.
const (
	tagSetup = 120 // coordinator → worker: setupMsg (once)
	tagBatch = 123 // coordinator → worker: assignBatch
	tagFrame = 124 // child → tree parent: treeFrame
	tagAck   = 125 // tree parent → child: frameAck
)

// setupMsg is the one-shot broadcast that primes every rank: the render
// spec, the authoritative tiling, and the full catalog each rank
// triangulates locally. Sent once; it is not on the per-tile hot path.
type setupMsg struct {
	Spec      render.Spec
	Tiles     []render.Tile
	Workers   int
	Fanout    int // gather-tree arity, resolved by the root
	Particles []geom.Vec3
}

// tileResult is one marched tile, as a rank holds it in memory and as it
// travels inside a treeFrame: the tile's own grid (exactly its columns of
// the tiling, I1-I0 wide) and the tile-local worker stats (worker ids
// 0..W-1, re-based at the gather). The column span is not carried: every
// rank reads it from the setup tiling by index.
type tileResult struct {
	Tile  int
	Rank  int    // the rank that marched it
	Err   string // non-empty: the tile failed on that rank; Grid is nil
	Grid  *grid.Grid2D
	Stats []render.WorkerStat
}

// assignBatch is the assignment unit: the coordinator hands each rank its
// whole static share up front as indices into the setup tiling (recovery
// re-dispatches arrive as later single-tile batches), or Shutdown.
type assignBatch struct {
	Shutdown bool
	Tiles    []int
}

// treeFrame is the unit of upward streaming in the gather tree: every
// tile its sender has finished or been handed by a child and not yet had
// acknowledged, each with its own grid. Frames are idempotent — every
// level dedupes tiles first-wins — so re-sending after a re-parent or a
// lost ack is always safe.
type treeFrame struct {
	Tiles []tileResult
}

// frameAck acknowledges tiles a parent has ingested (kept or deduped).
// Acks are hop-local flow control — they stop the child re-sending to
// *this* parent — not end-to-end delivery receipts: if an interior rank
// dies after acking but before forwarding, the loss is recovered by the
// root's per-rank deadline re-dispatch (tile renders are bit-exact, so
// recomputing elsewhere is always safe).
type frameAck struct {
	Tiles []int
}
