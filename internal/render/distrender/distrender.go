// Package distrender shards one render.Spec grid into column-block tiles
// and fans them out over the internal/mpi runtime: rank 0 coordinates (it
// owns the catalog, cuts cost-balanced tiles, scatters static batches,
// stream-stitches the frames that come back into one Result), the
// remaining ranks march tiles with the shared-memory SoA kernel and relay
// their children's frames toward the root.
//
// There is one gather protocol and one topology parameter. Rank r's parent
// is (r-1)/fanout, rank 0 is the root; every rank streams finished tiles to
// its parent as coalesced treeFrames and the parent acks them hop-locally.
// At fanout >= world size every parent is 0 and the tree is a star (the
// topology the GatherFlat alias names); at fanout 1 it is a chain. See
// tree.go for the worker side and the recovery ladder.
//
// There is one decomposition: the output grid is partitioned, the
// tessellation never is. The full catalog is broadcast once and every rank
// builds the same triangulation. The build is deterministic and column
// marching is independent, so the stitched grid is byte-identical to a
// single-rank render — the invariant the test suite pins. Sharding the
// catalog itself is not attempted; DESIGN §9 records what a bit-exact
// version of it would have to guarantee.
//
// Failure handling reuses the PR 1 recovery concepts: the coordinator waits
// with a tolerant AnySource receive, redistributes the outstanding tiles of
// crashed ranks (mpi failure detection), steals the head tile of a rank
// that shows no progress within TileTimeout (straggler mitigation), and —
// because tile renders are bit-exact — resolves duplicate results by
// first-arrival. If every worker is lost the coordinator computes the
// remainder itself unless the NoCoordinatorCompute test knob forbids it,
// in which case the Result is flagged Incomplete with the lost tiles
// enumerated.
package distrender

import (
	"context"
	"errors"
	"fmt"
	"time"

	"godtfe/internal/delaunay"
	"godtfe/internal/dtfe"
	"godtfe/internal/fault"
	"godtfe/internal/geom"
	"godtfe/internal/grid"
	"godtfe/internal/mpi"
	"godtfe/internal/render"
)

// GatherMode names a topology instead of an arity. It selects no code —
// there is one gather protocol — and survives only as a fanout alias for
// callers written against the two-protocol API (see Config.fanout).
type GatherMode int

const (
	// GatherAuto and GatherTree use Config.Fanout (DefaultFanout when 0).
	GatherAuto GatherMode = iota
	// GatherFlat is the star: fanout = world size, every rank's parent is 0.
	GatherFlat
	GatherTree
)

// DefaultFanout is the gather-tree arity when Config.Fanout is unset.
const DefaultFanout = 4

// Config tunes one distributed render.
type Config struct {
	Spec render.Spec

	// Tiles is the number of column-block tiles; 0 means 2× the world
	// size (over-decomposition keeps re-dispatch granular).
	Tiles int
	// EvenTiles forces equal-width tiles instead of cost-balanced ones.
	EvenTiles bool

	// Workers is the shared-memory worker count each rank marches with
	// (1 when 0).
	Workers int

	// Fanout is the gather-tree arity (DefaultFanout when 0; 1 is a chain,
	// >= world size a star). Gather == GatherFlat is an alias for
	// "Fanout = world size" and overrides Fanout; the other modes change
	// nothing. The root resolves the arity and broadcasts it, so all ranks
	// always agree on the topology.
	Fanout int
	Gather GatherMode

	// Fault optionally injects crashes/stragglers/message faults
	// (chaos tests). Crash point: fault.PointTile.
	Fault *fault.Injector

	// TileTimeout is the per-rank progress deadline (default 30s): a rank
	// with outstanding tiles and no accepted frame for this long has its
	// head tile stolen. Poll, when set, caps the coordinator's gather wait;
	// by default the gather blocks until a message, a membership change, or
	// the next rank deadline.
	TileTimeout time.Duration
	Poll        time.Duration
	// MaxSendRetries overrides the mpi send retry budget when > 0.
	MaxSendRetries int

	// NoCoordinatorCompute forbids rank 0 from marching tiles itself.
	// Production leaves it false (the coordinator is the fallback of
	// last resort); chaos tests set it to observe flagged-partial
	// results when all workers die.
	NoCoordinatorCompute bool
}

func (cfg *Config) tileTimeout() time.Duration {
	if cfg.TileTimeout > 0 {
		return cfg.TileTimeout
	}
	return 30 * time.Second
}

// fanout resolves the gather-tree arity for a world of size ranks. It is
// the only place a GatherMode is interpreted.
func (cfg *Config) fanout(size int) int {
	switch {
	case cfg.Gather == GatherFlat:
		return size
	case cfg.Fanout > 0:
		return cfg.Fanout
	}
	return DefaultFanout
}

// Result is the stitched output of a distributed render.
type Result struct {
	// Grid is the full stitched surface-density grid. Lost tiles (only
	// possible when Incomplete) are left zero.
	Grid *grid.Grid2D
	// Stats are the gathered worker stats with globally re-based worker
	// ids (rank r's local worker w becomes r*Workers+w).
	Stats []render.WorkerStat
	// Outcomes sums every marched column's outcome; each column is
	// stitched from exactly one tile, so totals match a single-rank
	// render exactly.
	Outcomes render.OutcomeCounts

	// Tiles is the tiling; TileRank[k] is the rank whose result for
	// tile k was stitched (-1 if lost).
	Tiles    []render.Tile
	TileRank []int

	// Fanout is the resolved gather-tree arity.
	Fanout int

	// Redispatched counts re-assigned tiles (crash or straggler
	// deadline); Duplicates counts results discarded by first-wins.
	Redispatched int
	Duplicates   int

	// Incomplete marks a partial result: Lost lists the tiles that were
	// never computed and Failures the per-stage reasons.
	Incomplete bool
	Lost       []int
	Failures   []string
}

// RunCtx executes one distributed render on this rank. Rank 0 must pass
// the catalog; other ranks' pts is ignored. Rank 0 returns the stitched
// Result; workers return (nil, nil) after a clean shutdown. All ranks of
// the communicator must call RunCtx with an equivalent Config.
//
// The caller context is observed on the coordinator rank:
// when ctx is cancelled or its deadline passes, rank 0 stops dispatching,
// aborts any self-compute march at the next column, shuts the surviving
// workers down cleanly (they finish their current tile, see the shutdown
// batch, and exit — no goroutine leaks), and returns the partial Result
// flagged Incomplete together with a *CancelledError. Worker ranks ignore
// ctx; they are driven entirely by the coordinator's protocol, so a single
// cancelled coordinator drains the whole world.
func RunCtx(ctx context.Context, c *mpi.Comm, cfg Config, pts []geom.Vec3) (*Result, error) {
	if err := cfg.Spec.Validate(false); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.MaxSendRetries > 0 {
		c.SetMaxSendRetries(cfg.MaxSendRetries)
	}
	if c.Rank() == 0 {
		return coordinate(ctx, c, cfg, pts)
	}
	return nil, work(c, cfg)
}

// CancelledError reports a distributed render cut short by its caller's
// context. It wraps the context cause, so errors.Is(err, context.Canceled)
// and errors.Is(err, context.DeadlineExceeded) both work, and carries the
// partial-progress accounting the caller's report needs.
type CancelledError struct {
	Cause       error
	Done, Total int // tiles stitched before the cut vs tiles overall
}

func (e *CancelledError) Error() string {
	return fmt.Sprintf("distrender: render cancelled with %d/%d tiles stitched: %v",
		e.Done, e.Total, e.Cause)
}

func (e *CancelledError) Unwrap() error { return e.Cause }

// abort finalizes a caller-cancelled render: the shutdown closure tells
// the surviving workers to exit, the partial result is flagged Incomplete
// through the normal finalize path, and the returned error is the typed
// CancelledError (which supersedes finalize's own incompleteness error).
func (co *coord) abort(ctx context.Context, shutdown func()) (*Result, error) {
	cause := context.Cause(ctx)
	co.res.Failures = append(co.res.Failures, fmt.Sprintf("render cancelled by caller: %v", cause))
	shutdown()
	res, _ := co.finalize()
	res.Incomplete = true
	return res, &CancelledError{Cause: cause, Done: len(co.have), Total: len(co.tiles)}
}

// ctxWait caps an event-driven gather wait so a cancellable context is
// observed promptly: a context deadline bounds the wait exactly, and a
// plain cancellation is polled at 100ms (only contexts with a Done channel
// pay this; Background keeps the full event-driven wait).
func ctxWait(ctx context.Context, wait time.Duration) time.Duration {
	if ctx.Done() == nil {
		return wait
	}
	if d, ok := ctx.Deadline(); ok {
		if r := time.Until(d); r < wait {
			wait = r
		}
	} else if wait > 100*time.Millisecond {
		wait = 100 * time.Millisecond
	}
	if wait < 0 {
		wait = 0
	}
	return wait
}

// buildMarcher triangulates the catalog and prepares the SoA kernel.
func buildMarcher(pts []geom.Vec3) (*render.Marcher, error) {
	tri, err := delaunay.New(pts)
	if err != nil {
		return nil, err
	}
	f, err := dtfe.NewField(tri, nil)
	if err != nil {
		return nil, err
	}
	return render.NewMarcher(f), nil
}

// marchTile renders tile k of the setup tiling against the replicated
// marcher. ctx aborts the march at the next column (the coordinator's
// self-compute path passes its caller's context; workers pass Background
// and rely on the shutdown protocol instead). A context error propagates
// as the rank-level error — it is the caller cancelling, not the tile
// failing; any other render error is the tile's own (Err).
func marchTile(ctx context.Context, m *render.Marcher, setup *setupMsg, k, rank int) (tileResult, error) {
	res := tileResult{Tile: k, Rank: rank}
	g, stats, err := m.RenderTileCtx(ctx, setup.Spec, setup.Tiles[k], setup.Workers, render.ScheduleDynamic)
	if err != nil {
		if ctx.Err() != nil {
			return res, err
		}
		res.Err = err.Error()
		return res, nil
	}
	res.Grid, res.Stats = g, stats
	return res, nil
}

// coord is the rank-0 gather state. Tile grids are stitched into the output
// grid the moment they are accepted (streaming stitch) and then dropped;
// per tile only its failure string is retained, so the coordinator's
// footprint is one output grid regardless of tile count or fanout.
type coord struct {
	setup      *setupMsg
	tiles      []render.Tile
	res        *Result
	have       map[int]string // accepted tile → its Err ("" once stitched)
	merged     map[int]*render.WorkerStat
	workersAll int
}

func newCoord(setup *setupMsg) *coord {
	workersAll := setup.Workers
	if workersAll <= 0 {
		workersAll = 1
	}
	res := &Result{
		Grid:     setup.Spec.Grid(),
		Tiles:    setup.Tiles,
		TileRank: make([]int, len(setup.Tiles)),
		Fanout:   setup.Fanout,
	}
	for k := range res.TileRank {
		res.TileRank[k] = -1
	}
	return &coord{
		setup: setup, tiles: setup.Tiles, res: res,
		have:       make(map[int]string),
		merged:     make(map[int]*render.WorkerStat),
		workersAll: workersAll,
	}
}

// wellFormed reports whether r names a tile of the setup tiling and, when
// healthy, carries exactly that tile's grid (I1-I0 columns, Ny rows, and
// that many data words). Frames cross several hops; an entry that fails
// this is ingested nowhere.
func (s *setupMsg) wellFormed(r tileResult) bool {
	if r.Tile < 0 || r.Tile >= len(s.Tiles) {
		return false
	}
	t, g := s.Tiles[r.Tile], r.Grid
	return r.Err != "" || g != nil && g.Nx == t.I1-t.I0 && g.Ny == s.Spec.Ny && len(g.Data) == g.Nx*g.Ny
}

// accept ingests one tile: a healthy tile's grid is stitched immediately
// and dropped. Returns true when the tile was new (first-wins); duplicates
// and malformed entries return false, the latter left un-ingested so the
// deadline re-dispatch recovers the tile.
func (co *coord) accept(r tileResult) bool {
	k := r.Tile
	if !co.setup.wellFormed(r) {
		co.res.Failures = append(co.res.Failures,
			fmt.Sprintf("discarded malformed frame entry for tile %d from rank %d", k, r.Rank))
		return false
	}
	if _, ok := co.have[k]; ok {
		co.res.Duplicates++
		return false
	}
	if r.Err == "" {
		t, g := co.tiles[k], r.Grid
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				co.res.Grid.Set(t.I0+i, j, g.At(i, j))
			}
		}
		co.res.TileRank[k] = r.Rank
		co.merged = render.MergeWorkerStats(co.merged, r.Stats, r.Rank*co.workersAll)
	}
	co.have[k] = r.Err
	return true
}

// complete reports whether every tile has been ingested.
func (co *coord) complete() bool { return len(co.have) == len(co.tiles) }

// selfCompute marches one tile on the coordinator (the fallback of last
// resort when no live worker can take it). ctx aborts the march at the
// next column so a cancelled caller is not stuck behind a full self-march.
func (co *coord) selfCompute(ctx context.Context, k int, marcher **render.Marcher) error {
	if *marcher == nil {
		m, err := buildMarcher(co.setup.Particles)
		if err != nil {
			return err
		}
		*marcher = m
	}
	r, err := marchTile(ctx, *marcher, co.setup, k, 0)
	if err != nil {
		return err
	}
	co.accept(r)
	return nil
}

// finalize enumerates lost/failed tiles and folds the gathered stats.
func (co *coord) finalize() (*Result, error) {
	res := co.res
	for k, t := range co.tiles {
		why, ok := co.have[k]
		if ok && why == "" {
			continue
		}
		if !ok {
			why = "never completed"
		}
		res.Incomplete = true
		res.Lost = append(res.Lost, k)
		res.Failures = append(res.Failures, fmt.Sprintf("tile %d [%d,%d): %s", k, t.I0, t.I1, why))
	}
	res.Stats = render.FlattenWorkerStats(co.merged)
	res.Outcomes = render.TotalOutcomes(res.Stats)
	if res.Incomplete {
		return res, fmt.Errorf("distrender: incomplete render: %d tile(s) lost", len(res.Lost))
	}
	return res, nil
}

// coordinate is the rank-0 side: tile the grid, broadcast setup, hand every
// live rank its static round-robin batch, then stream-stitch the frames
// that come back while per-rank deadlines drive re-dispatch.
func coordinate(ctx context.Context, c *mpi.Comm, cfg Config, pts []geom.Vec3) (*Result, error) {
	spec := cfg.Spec
	if err := spec.Validate(false); err != nil {
		return nil, err
	}
	nt := cfg.Tiles
	if nt <= 0 {
		nt = 2 * c.Size()
	}
	setup := setupMsg{
		Spec: spec, Tiles: MakeTiles(spec, pts, nt, cfg.EvenTiles),
		Workers: cfg.Workers, Fanout: cfg.fanout(c.Size()), Particles: pts,
	}
	co := newCoord(&setup)
	res := co.res
	dead := make(map[int]bool)

	// Setup fan-out. A rank whose setup send is lost past the retry
	// budget never learns the spec; it is written off like a crashed rank
	// (it unblocks and exits cleanly once the coordinator finishes) and
	// its share of tiles flows to the survivors.
	for r := 1; r < c.Size(); r++ {
		if err := c.Send(r, tagSetup, &setup); err != nil {
			dead[r] = true
			res.Failures = append(res.Failures,
				fmt.Sprintf("setup to rank %d: %s", r, err))
		}
	}

	timeout := cfg.tileTimeout()
	var coordMarcher *render.Marcher

	shutdown := func() {
		for r := 1; r < c.Size(); r++ {
			if !dead[r] && c.Alive(r) {
				_ = c.Send(r, tagBatch, assignBatch{Shutdown: true})
			}
		}
	}

	pending := make(map[int][]int)      // rank → tiles assigned, not yet arrived
	owner := make(map[int]int)          // tile → rank currently responsible
	deadline := make(map[int]time.Time) // rank → progress deadline

	liveRanks := func() []int {
		var out []int
		for r := 1; r < c.Size(); r++ {
			if !dead[r] {
				out = append(out, r)
			}
		}
		return out
	}

	// sendBatch dispatches tiles to rank r and arms its deadline. A failed
	// send writes the rank off; its share is redistributed by the caller
	// via markDead.
	sendBatch := func(r int, tiles []int) bool {
		if err := c.Send(r, tagBatch, assignBatch{Tiles: tiles}); err != nil {
			return false
		}
		for _, k := range tiles {
			owner[k] = r
		}
		pending[r] = append(pending[r], tiles...)
		deadline[r] = time.Now().Add(timeout)
		return true
	}

	// reassign hands one missing tile to the least-loaded live rank
	// (excluding `not` when another candidate exists). With no live rank
	// it stays unowned for the self-compute fallback.
	var markDead func(r int)
	reassign := func(k, not int) {
		for {
			if _, ok := co.have[k]; ok {
				return
			}
			live := liveRanks()
			best := -1
			for _, r := range live {
				if r == not && len(live) > 1 {
					continue
				}
				if best < 0 || len(pending[r]) < len(pending[best]) {
					best = r
				}
			}
			if best < 0 {
				delete(owner, k) // self-compute fallback picks it up
				return
			}
			if sendBatch(best, []int{k}) {
				res.Redispatched++
				return
			}
			markDead(best) // and retry with the next-best live rank
		}
	}

	markDead = func(r int) {
		if dead[r] {
			return
		}
		dead[r] = true
		res.Failures = append(res.Failures, fmt.Sprintf("rank %d lost: %s", r, c.RankFailure(r)))
		orphans := pending[r]
		delete(pending, r)
		delete(deadline, r)
		for _, k := range orphans {
			reassign(k, -1)
		}
	}

	// cleared drops an accepted tile from its owner's outstanding share.
	// It is keyed by the tile, never by the sender: a stale frame for a
	// tile that was stolen from a rank must not touch the tracking of the
	// tiles that rank still holds.
	cleared := func(tile int) {
		r, ok := owner[tile]
		if !ok {
			return
		}
		pending[r] = removeTile(pending[r], tile)
		delete(owner, tile)
		// Progress evidence: the owning rank's whole share gets a fresh
		// deadline window.
		if !dead[r] {
			deadline[r] = time.Now().Add(timeout)
		}
	}

	// Initial static round-robin distribution over the live world.
	if live := liveRanks(); len(live) > 0 {
		shares := make(map[int][]int)
		for k := range co.tiles {
			r := live[k%len(live)]
			shares[r] = append(shares[r], k)
		}
		for _, r := range live {
			if tiles := shares[r]; len(tiles) > 0 {
				if !sendBatch(r, tiles) {
					markDead(r)
				}
			}
		}
	}

	epoch := c.FailureEpoch()
	for !co.complete() {
		if ctx.Err() != nil {
			return co.abort(ctx, shutdown)
		}
		for _, r := range c.FailedRanks() {
			markDead(r)
		}
		// Straggler expiry: a rank with outstanding tiles and no accepted
		// progress within its deadline has its head tile stolen and
		// re-dispatched; the remaining share gets a fresh window (either
		// the rank is slow — its eventual duplicates are deduped — or its
		// frames were lost, and re-dispatch elsewhere recovers them).
		now := time.Now()
		for r, d := range deadline {
			if len(pending[r]) == 0 || now.Before(d) {
				continue
			}
			k := pending[r][0]
			pending[r] = pending[r][1:]
			deadline[r] = now.Add(timeout)
			reassign(k, r)
		}
		// Self-compute fallback: no live worker is left (or the world never
		// had one), so the root marches what is missing itself — unless the
		// test knob forbids it, and then the remainder is lost.
		if len(liveRanks()) == 0 {
			if cfg.NoCoordinatorCompute {
				break
			}
			for k := range co.tiles {
				if _, ok := co.have[k]; !ok {
					if err := co.selfCompute(ctx, k, &coordMarcher); err != nil {
						if ctx.Err() != nil {
							return co.abort(ctx, shutdown)
						}
						return nil, err
					}
				}
			}
			break
		}
		// A missing tile with no live owner (its owner was written off
		// while no rank was live to take it) is reassigned now.
		for k := range co.tiles {
			if _, ok := co.have[k]; ok {
				continue
			}
			if r, ok := owner[k]; !ok || dead[r] {
				reassign(k, -1)
			}
		}
		// Event-driven wait until the next frame, membership change, or
		// earliest rank deadline.
		wait := time.Second
		if cfg.Poll > 0 {
			wait = cfg.Poll
		}
		now = time.Now()
		for r, d := range deadline {
			if len(pending[r]) == 0 {
				continue
			}
			if rem := d.Sub(now); rem < wait {
				wait = rem
			}
		}
		msg, ep, err := c.RecvTolerant([]int{tagFrame}, epoch, ctxWait(ctx, wait))
		epoch = ep
		if err != nil {
			if errors.Is(err, mpi.ErrTimeout) || errors.Is(err, mpi.ErrWorldChanged) {
				continue
			}
			return nil, fmt.Errorf("distrender: gather: %w", err)
		}
		ingestFrame(c, co, msg, cleared)
	}

	shutdown()
	return co.finalize()
}

func removeTile(s []int, k int) []int {
	for i, v := range s {
		if v == k {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// ingestFrame accepts every tile of a treeFrame into the coordinator state
// and acks the sender. cleared is invoked for each newly accepted tile so
// the caller can clear its tracking.
func ingestFrame(c *mpi.Comm, co *coord, msg *mpi.Message, cleared func(tile int)) {
	var f treeFrame
	if err := msg.Decode(&f); err != nil {
		co.res.Failures = append(co.res.Failures, fmt.Sprintf("gather decode: %s", err))
		return
	}
	ack := frameAck{Tiles: make([]int, 0, len(f.Tiles))}
	for _, r := range f.Tiles {
		// Ack everything in the frame — duplicates and malformed entries
		// included — so the child stops re-sending; a tile rejected as
		// malformed is recovered by the deadline re-dispatch, not by a
		// retry of the same bytes.
		ack.Tiles = append(ack.Tiles, r.Tile)
		if co.accept(r) {
			cleared(r.Tile)
		}
	}
	_ = c.Send(msg.Src, tagAck, ack)
}
