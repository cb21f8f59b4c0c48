// Wire protocol of the distributed renderer. Setup (spec + tiling + the
// replicated catalog) is broadcast once via the gob fallback; batches,
// frames and acks ride the typed fast codec (mpi.FastMarshaler), reusing
// the exported particle/float helpers and Grid2D's own fast encoding, so
// the hot path never touches gob.
package distrender

import (
	"encoding/binary"
	"fmt"
	"time"

	"godtfe/internal/geom"
	"godtfe/internal/grid"
	"godtfe/internal/mpi"
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
// spec, the tiling, and — in replication mode (Halo <= 0) — the full
// catalog each rank triangulates locally. Sent via gob; it is not on the
// per-tile hot path.
type setupMsg struct {
	Spec      render.Spec
	Tiles     []render.Tile
	Workers   int
	Sched     render.Schedule
	Halo      float64
	Guard     int
	Fanout    int         // gather-tree arity, resolved by the root
	Particles []geom.Vec3 // full catalog when Halo <= 0; nil in subset mode
}

// tileMsg assigns one tile to a worker (it travels inside an assignBatch).
// In subset mode (Subset true) it carries the halo-padded particle subset
// the worker triangulates for this tile and the guard widths to render on
// each interior side; in replication mode the worker marches its
// replicated mesh. The mode is an
// explicit flag — it must not be inferred from len(Particles), because a
// subset can legitimately be empty (a void tile), which is a tile-level
// failure, not replication.
type tileMsg struct {
	Subset    bool
	Certified bool // halo cleared CertifiedHaloBound: skip the guard renders
	Tile      int  // index into the tiling
	I0, I1    int  // owned columns [I0, I1)
	GL, GR    int  // guard columns to render left/right of the owned block
	Particles []geom.Vec3
}

// tileResult is one marched tile as a rank holds it in memory: the
// owned-column grid, optional guard-column grids for the stitch-time halo
// cross-check, and the tile-local worker stats (worker ids 0..W-1, re-based
// at the gather). On the wire it travels as a tileFrame plus a span.
type tileResult struct {
	Tile      int
	Rank      int
	Err       string // non-empty: the tile failed on this rank (e.g. degenerate subset)
	Certified bool   // subset mode: halo certificate held, guard renders skipped
	Grid      *grid.Grid2D
	GuardL    *grid.Grid2D
	GuardR    *grid.Grid2D
	Stats     []render.WorkerStat
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

// AppendFast implements mpi.FastMarshaler.
func (m tileMsg) AppendFast(buf []byte) []byte {
	buf = appendBool(buf, m.Subset)
	buf = appendBool(buf, m.Certified)
	buf = appendUvarint(buf, uint64(m.Tile))
	buf = appendUvarint(buf, uint64(m.I0))
	buf = appendUvarint(buf, uint64(m.I1))
	buf = appendUvarint(buf, uint64(m.GL))
	buf = appendUvarint(buf, uint64(m.GR))
	return mpi.AppendVec3s(buf, m.Particles)
}

// UnmarshalFast implements mpi.FastUnmarshaler.
func (m *tileMsg) UnmarshalFast(data []byte) error {
	var err error
	if m.Subset, data, err = readBool(data); err != nil {
		return err
	}
	if m.Certified, data, err = readBool(data); err != nil {
		return err
	}
	ints := [5]*int{&m.Tile, &m.I0, &m.I1, &m.GL, &m.GR}
	for _, p := range ints {
		var v uint64
		if v, data, err = readUvarint(data); err != nil {
			return err
		}
		*p = int(v)
	}
	if _, err = mpi.ReadVec3s(data, &m.Particles); err != nil {
		return err
	}
	if len(m.Particles) == 0 {
		m.Particles = nil
	}
	return nil
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

// assignBatch is the assignment unit: the coordinator hands
// each rank its whole static share of tiles up front (recovery
// re-dispatches arrive as later single-tile batches), or Shutdown.
type assignBatch struct {
	Shutdown bool
	Tiles    []tileMsg
}

// AppendFast implements mpi.FastMarshaler.
func (b assignBatch) AppendFast(buf []byte) []byte {
	buf = appendBool(buf, b.Shutdown)
	buf = appendUvarint(buf, uint64(len(b.Tiles)))
	for _, t := range b.Tiles {
		sub := t.AppendFast(nil)
		buf = appendUvarint(buf, uint64(len(sub)))
		buf = append(buf, sub...)
	}
	return buf
}

// UnmarshalFast implements mpi.FastUnmarshaler.
func (b *assignBatch) UnmarshalFast(data []byte) error {
	var err error
	if b.Shutdown, data, err = readBool(data); err != nil {
		return err
	}
	n, data, err := readUvarint(data)
	if err != nil {
		return err
	}
	if n > uint64(len(data)) { // each tileMsg frame is >= 8 bytes
		return fmt.Errorf("distrender: implausible batch size %d", n)
	}
	b.Tiles = nil
	for i := uint64(0); i < n; i++ {
		var sz uint64
		if sz, data, err = readUvarint(data); err != nil {
			return err
		}
		if uint64(len(data)) < sz {
			return fmt.Errorf("distrender: truncated batch entry")
		}
		var t tileMsg
		if err := t.UnmarshalFast(data[:sz]); err != nil {
			return err
		}
		b.Tiles = append(b.Tiles, t)
		data = data[sz:]
	}
	return nil
}

// tileFrame is the per-tile metadata of a gather frame: which tile,
// who marched it, its owned column span, optional guard grids, and the
// tile-local stats. The owned grid itself rides in the frame's Spans (so
// column-adjacent tiles share one merged buffer); a failed tile
// (Err != "") is metadata-only.
type tileFrame struct {
	Tile      int
	Rank      int
	I0, I1    int
	Err       string
	Certified bool
	GuardL    *grid.Grid2D
	GuardR    *grid.Grid2D
	Stats     []render.WorkerStat
}

func (f tileFrame) appendFast(buf []byte) []byte {
	buf = appendUvarint(buf, uint64(f.Tile))
	buf = appendUvarint(buf, uint64(f.Rank))
	buf = appendUvarint(buf, uint64(f.I0))
	buf = appendUvarint(buf, uint64(f.I1))
	buf = appendString(buf, f.Err)
	buf = appendBool(buf, f.Certified)
	buf = appendGrid(buf, f.GuardL)
	buf = appendGrid(buf, f.GuardR)
	return appendStats(buf, f.Stats)
}

func (f *tileFrame) unmarshalFast(data []byte) ([]byte, error) {
	var err error
	ints := [4]*int{&f.Tile, &f.Rank, &f.I0, &f.I1}
	for _, p := range ints {
		var v uint64
		if v, data, err = readUvarint(data); err != nil {
			return nil, err
		}
		*p = int(v)
	}
	if f.Err, data, err = readString(data); err != nil {
		return nil, err
	}
	if f.Certified, data, err = readBool(data); err != nil {
		return nil, err
	}
	if f.GuardL, data, err = readGrid(data); err != nil {
		return nil, err
	}
	if f.GuardR, data, err = readGrid(data); err != nil {
		return nil, err
	}
	if f.Stats, data, err = readStats(data); err != nil {
		return nil, err
	}
	return data, nil
}

// gridSpan is one contiguous run of merged owned columns: Grid holds the
// values for global columns [I0, I0+Grid.Nx).
type gridSpan struct {
	I0   int
	Grid *grid.Grid2D
}

// treeFrame is the unit of upward streaming in the gather tree: a set
// of completed tiles plus the merged column spans holding their grids.
// Frames are idempotent — every merge level dedupes tiles first-wins — so
// re-sending after a re-parent or a lost ack is always safe.
type treeFrame struct {
	Tiles []tileFrame
	Spans []gridSpan
}

// AppendFast implements mpi.FastMarshaler.
func (f treeFrame) AppendFast(buf []byte) []byte {
	buf = appendUvarint(buf, uint64(len(f.Tiles)))
	for _, t := range f.Tiles {
		sub := t.appendFast(nil)
		buf = appendUvarint(buf, uint64(len(sub)))
		buf = append(buf, sub...)
	}
	buf = appendUvarint(buf, uint64(len(f.Spans)))
	for _, s := range f.Spans {
		buf = appendUvarint(buf, uint64(s.I0))
		buf = appendGrid(buf, s.Grid)
	}
	return buf
}

// UnmarshalFast implements mpi.FastUnmarshaler.
func (f *treeFrame) UnmarshalFast(data []byte) error {
	n, data, err := readUvarint(data)
	if err != nil {
		return err
	}
	if n > uint64(len(data)) {
		return fmt.Errorf("distrender: implausible frame tile count %d", n)
	}
	f.Tiles = nil
	for i := uint64(0); i < n; i++ {
		var sz uint64
		if sz, data, err = readUvarint(data); err != nil {
			return err
		}
		if uint64(len(data)) < sz {
			return fmt.Errorf("distrender: truncated frame tile")
		}
		var t tileFrame
		if _, err := t.unmarshalFast(data[:sz]); err != nil {
			return err
		}
		f.Tiles = append(f.Tiles, t)
		data = data[sz:]
	}
	if n, data, err = readUvarint(data); err != nil {
		return err
	}
	if n > uint64(len(data)) {
		return fmt.Errorf("distrender: implausible frame span count %d", n)
	}
	f.Spans = nil
	for i := uint64(0); i < n; i++ {
		var s gridSpan
		var v uint64
		if v, data, err = readUvarint(data); err != nil {
			return err
		}
		s.I0 = int(v)
		if s.Grid, data, err = readGrid(data); err != nil {
			return err
		}
		f.Spans = append(f.Spans, s)
	}
	return nil
}

// frameAck acknowledges tiles a parent has ingested (merged or deduped).
// Acks are hop-local flow control — they stop the child re-sending to
// *this* parent — not end-to-end delivery receipts: if an interior rank
// dies after acking but before forwarding, the loss is recovered by the
// root's per-rank deadline re-dispatch (tile renders are bit-exact, so
// recomputing elsewhere is always safe).
type frameAck struct {
	Tiles []int
}

// AppendFast implements mpi.FastMarshaler.
func (a frameAck) AppendFast(buf []byte) []byte {
	buf = appendUvarint(buf, uint64(len(a.Tiles)))
	for _, t := range a.Tiles {
		buf = appendUvarint(buf, uint64(t))
	}
	return buf
}

// UnmarshalFast implements mpi.FastUnmarshaler.
func (a *frameAck) UnmarshalFast(data []byte) error {
	n, data, err := readUvarint(data)
	if err != nil {
		return err
	}
	if n > uint64(len(data)) {
		return fmt.Errorf("distrender: implausible ack count %d", n)
	}
	a.Tiles = nil
	for i := uint64(0); i < n; i++ {
		var v uint64
		if v, data, err = readUvarint(data); err != nil {
			return err
		}
		a.Tiles = append(a.Tiles, int(v))
	}
	return nil
}
