// Wire protocol of the distributed renderer. Setup (spec + tiling + the
// replicated catalog) is broadcast once via the gob fallback; batches,
// frames and acks ride the typed fast codec (mpi.FastMarshaler), reusing
// Grid2D's own fast encoding, so the hot path never touches gob. Every
// decoder fills its receiver only after the whole payload has parsed: a
// truncated message is an error and leaves nothing half-accepted.
package distrender

import (
	"encoding/binary"
	"fmt"
	"time"

	"godtfe/internal/geom"
	"godtfe/internal/grid"
	"godtfe/internal/render"
)

// Message tags. The pipeline owns 100–103; the distributed renderer's
// block starts at 120.
const (
	tagSetup = 120 // coordinator → worker: setupMsg (gob, once)
	tagBatch = 123 // coordinator → worker: assignBatch
	tagFrame = 124 // child → tree parent: treeFrame
	tagAck   = 125 // tree parent → child: frameAck
)

// setupMsg is the one-shot broadcast that primes every rank: the render
// spec, the authoritative tiling, and the full catalog each rank
// triangulates locally. Sent via gob; it is not on the per-tile hot path.
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

func appendUvarint(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }

func readUvarint(data []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("distrender: truncated wire header")
	}
	return v, data[n:], nil
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func readBool(data []byte) (bool, []byte, error) {
	if len(data) < 1 {
		return false, nil, fmt.Errorf("distrender: truncated wire header")
	}
	return data[0] != 0, data[1:], nil
}

// appendGrid frames an optional grid: presence byte, then a
// length-prefixed Grid2D fast encoding (Grid2D.UnmarshalFast is strict
// about payload length, so embedding needs the frame).
func appendGrid(buf []byte, g *grid.Grid2D) []byte {
	if g == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	sub := g.AppendFast(nil)
	buf = appendUvarint(buf, uint64(len(sub)))
	return append(buf, sub...)
}

func readGrid(data []byte) (*grid.Grid2D, []byte, error) {
	present, data, err := readBool(data)
	if err != nil || !present {
		return nil, data, err
	}
	n, data, err := readUvarint(data)
	if err != nil {
		return nil, nil, err
	}
	if uint64(len(data)) < n {
		return nil, nil, fmt.Errorf("distrender: truncated grid frame")
	}
	g := new(grid.Grid2D)
	if err := g.UnmarshalFast(data[:n]); err != nil {
		return nil, nil, err
	}
	return g, data[n:], nil
}

func appendString(buf []byte, s string) []byte {
	buf = appendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readString(data []byte) (string, []byte, error) {
	v, data, err := readUvarint(data)
	if err != nil {
		return "", nil, err
	}
	if uint64(len(data)) < v {
		return "", nil, fmt.Errorf("distrender: truncated string")
	}
	return string(data[:v]), data[v:], nil
}

func appendStats(buf []byte, stats []render.WorkerStat) []byte {
	buf = appendUvarint(buf, uint64(len(stats)))
	for _, s := range stats {
		buf = appendUvarint(buf, uint64(s.Worker))
		buf = appendUvarint(buf, uint64(s.Busy))
		buf = appendUvarint(buf, uint64(s.Cells))
		buf = appendUvarint(buf, uint64(s.Steps))
		buf = appendUvarint(buf, uint64(s.Columns.Clean))
		buf = appendUvarint(buf, uint64(s.Columns.Perturbed))
		buf = appendUvarint(buf, uint64(s.Columns.Fallback))
		buf = appendUvarint(buf, uint64(s.Columns.Abandoned))
	}
	return buf
}

func readStats(data []byte) ([]render.WorkerStat, []byte, error) {
	v, data, err := readUvarint(data)
	if err != nil {
		return nil, nil, err
	}
	if v > uint64(len(data)) { // each stat is >= 8 bytes; cheap sanity bound
		return nil, nil, fmt.Errorf("distrender: implausible stats count %d", v)
	}
	if v == 0 {
		return nil, data, nil
	}
	stats := make([]render.WorkerStat, v)
	for i := range stats {
		s := &stats[i]
		var raw [8]uint64
		for k := range raw {
			if raw[k], data, err = readUvarint(data); err != nil {
				return nil, nil, err
			}
		}
		s.Worker = int(raw[0])
		s.Busy = time.Duration(raw[1])
		s.Cells = int(raw[2])
		s.Steps = int64(raw[3])
		s.Columns.Clean = int64(raw[4])
		s.Columns.Perturbed = int64(raw[5])
		s.Columns.Fallback = int64(raw[6])
		s.Columns.Abandoned = int64(raw[7])
	}
	return stats, data, nil
}

// appendTiles and readTiles carry a list of tile indices (a batch's
// assignments, an ack's receipts): uvarint count, then the indices.
func appendTiles(buf []byte, tiles []int) []byte {
	buf = appendUvarint(buf, uint64(len(tiles)))
	for _, k := range tiles {
		buf = appendUvarint(buf, uint64(k))
	}
	return buf
}

func readTiles(data []byte) ([]int, error) {
	n, data, err := readUvarint(data)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(data)) { // each index is >= 1 byte
		return nil, fmt.Errorf("distrender: implausible tile count %d", n)
	}
	var tiles []int
	for i := uint64(0); i < n; i++ {
		var v uint64
		if v, data, err = readUvarint(data); err != nil {
			return nil, err
		}
		tiles = append(tiles, int(v))
	}
	return tiles, nil
}

// assignBatch is the assignment unit: the coordinator hands each rank its
// whole static share up front as indices into the setup tiling (recovery
// re-dispatches arrive as later single-tile batches), or Shutdown.
type assignBatch struct {
	Shutdown bool
	Tiles    []int
}

// AppendFast implements mpi.FastMarshaler.
func (b assignBatch) AppendFast(buf []byte) []byte {
	return appendTiles(appendBool(buf, b.Shutdown), b.Tiles)
}

// UnmarshalFast implements mpi.FastUnmarshaler.
func (b *assignBatch) UnmarshalFast(data []byte) error {
	shutdown, data, err := readBool(data)
	if err != nil {
		return err
	}
	tiles, err := readTiles(data)
	if err != nil {
		return err
	}
	*b = assignBatch{Shutdown: shutdown, Tiles: tiles}
	return nil
}

// treeFrame is the unit of upward streaming in the gather tree: every
// tile its sender has finished or been handed by a child and not yet had
// acknowledged, each with its own grid. Frames are idempotent — every
// level dedupes tiles first-wins — so re-sending after a re-parent or a
// lost ack is always safe.
type treeFrame struct {
	Tiles []tileResult
}

// AppendFast implements mpi.FastMarshaler.
func (f treeFrame) AppendFast(buf []byte) []byte {
	buf = appendUvarint(buf, uint64(len(f.Tiles)))
	for _, t := range f.Tiles {
		buf = appendUvarint(buf, uint64(t.Tile))
		buf = appendUvarint(buf, uint64(t.Rank))
		buf = appendString(buf, t.Err)
		buf = appendGrid(buf, t.Grid)
		buf = appendStats(buf, t.Stats)
	}
	return buf
}

// UnmarshalFast implements mpi.FastUnmarshaler.
func (f *treeFrame) UnmarshalFast(data []byte) error {
	n, data, err := readUvarint(data)
	if err != nil {
		return err
	}
	if n > uint64(len(data)) { // each tile is >= 5 bytes
		return fmt.Errorf("distrender: implausible frame tile count %d", n)
	}
	var tiles []tileResult
	for i := uint64(0); i < n; i++ {
		var t tileResult
		var tile, rank uint64
		if tile, data, err = readUvarint(data); err != nil {
			return err
		}
		if rank, data, err = readUvarint(data); err != nil {
			return err
		}
		t.Tile, t.Rank = int(tile), int(rank)
		if t.Err, data, err = readString(data); err != nil {
			return err
		}
		if t.Grid, data, err = readGrid(data); err != nil {
			return err
		}
		if t.Stats, data, err = readStats(data); err != nil {
			return err
		}
		tiles = append(tiles, t)
	}
	f.Tiles = tiles
	return nil
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

// AppendFast implements mpi.FastMarshaler.
func (a frameAck) AppendFast(buf []byte) []byte { return appendTiles(buf, a.Tiles) }

// UnmarshalFast implements mpi.FastUnmarshaler.
func (a *frameAck) UnmarshalFast(data []byte) error {
	tiles, err := readTiles(data)
	if err != nil {
		return err
	}
	a.Tiles = tiles
	return nil
}
