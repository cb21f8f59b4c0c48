// Package distrender shards one render.Spec grid into column-block tiles
// and fans them out over the internal/mpi runtime: rank 0 coordinates (it
// owns the catalog, cuts cost-balanced tiles, scatters static batches,
// stream-stitches the tiles that come back into one Result), the
// remaining ranks march tiles with the shared-memory SoA kernel and stream
// them straight back to rank 0. A batch is the only message a worker is
// sent, and it needs nothing before it: the spec, the worker count, each
// tile's index and column span, and its slab.
//
// There is one gather protocol and one topology: the star. Every worker
// sends each finished tile to rank 0 once, as a tileResult, and rank 0's
// progress deadline recovers any that never arrives. See worker.go for the
// worker side and the recovery ladder.
//
// There is one decomposition: the output grid is partitioned, the
// tessellation never is. Rank 0 triangulates the catalog once, estimates
// the field once and keeps both; every batch it sends carries the slab of
// that one mesh its tiles cross (render.CutSlab: the finite tets whose
// x-extent meets the tiles' columns widened by the perturbation ladders'
// reach), and the worker builds its Marcher straight from the slab. A
// slab is a piece of the mesh, not a re-triangulated ghost zone, and
// column marching is independent, so the stitched grid is byte-identical
// to a single-rank render — the invariant the test suite pins. A static
// share is a contiguous block of tiles, so the slabs overlap only by their
// pads. Sharding the catalog itself is not attempted; DESIGN §9 records
// what a bit-exact version of it would have to guarantee.
//
// Failure handling reuses the PR 1 recovery concepts: the coordinator waits
// with a tolerant AnySource receive, redistributes the outstanding tiles of
// crashed ranks (mpi failure detection), steals the head tile of a rank
// that shows no progress within the straggler deadline (straggler
// mitigation), and — because tile renders are bit-exact — resolves
// duplicate results by first-arrival. If every worker is lost the
// coordinator stitches the results already delivered, then cuts one slab
// for the tiles still missing and marches it with the workers' batch code,
// so every tile is marched from a slab. A Result missing tiles is flagged
// Incomplete with the lost tiles enumerated.
//
// The chaos suites reach behaviours no caller chooses (equal-width tiles,
// injected faults, a short straggler deadline, no self-compute) through
// the hooks parameter of the unexported run, never through Config.
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

// GatherMode selects nothing: every render gathers over the star. The type
// and its constants survive only because the benchmark harness
// (bench/e2e/dist.go) still names them; the next benchmark-only change
// deletes them together with Config.Gather.
type GatherMode int

const (
	GatherAuto GatherMode = iota
	GatherFlat
	GatherTree
)

// Config tunes one distributed render.
type Config struct {
	Spec render.Spec

	// Tiles is the number of column-block tiles; 0 means 2× the world
	// size (over-decomposition keeps re-dispatch granular).
	Tiles int

	// Workers is the shared-memory worker count each rank marches with
	// (1 when 0).
	Workers int

	// Gather is read by nothing (see GatherMode).
	Gather GatherMode
}

// hooks are the behaviours of a render that only the test suites choose.
// The zero value is production's: cost-balanced tiles, no injected faults,
// the 30 s straggler deadline, and the coordinator as the fallback of last
// resort.
type hooks struct {
	// evenTiles cuts equal-width tiles instead of cost-balanced ones.
	evenTiles bool
	// fault injects crashes and straggler sleeps: fault.PointTile before a
	// march, fault.PointRelay before a worker sends a marched tile.
	fault *fault.Injector
	// tileTimeout, when > 0, replaces the 30 s per-rank progress deadline:
	// a rank with outstanding tiles and no accepted tile for this long has
	// its head tile stolen.
	tileTimeout time.Duration
	// noCoordinatorCompute forbids rank 0 from marching tiles itself, so
	// losing every worker yields a flagged-partial Result.
	noCoordinatorCompute bool
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
	return run(ctx, c, cfg, pts, hooks{})
}

// run is RunCtx with the test suites' hooks.
func run(ctx context.Context, c *mpi.Comm, cfg Config, pts []geom.Vec3, h hooks) (*Result, error) {
	if err := cfg.Spec.Validate(false); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if h.tileTimeout <= 0 {
		h.tileTimeout = 30 * time.Second
	}
	if c.Rank() == 0 {
		return coordinate(ctx, c, cfg, pts, h)
	}
	return nil, work(c, h)
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

// coord is the rank-0 gather state. Tile grids are stitched into the output
// grid the moment they are accepted (streaming stitch) and then dropped;
// per tile only its failure string is retained, so the coordinator's
// footprint is one output grid regardless of tile or rank count.
type coord struct {
	spec    render.Spec
	tiles   []render.Tile // the authoritative tiling
	workers int           // each rank's march goroutines
	field   *dtfe.Field   // rank 0's one mesh and its densities
	res     *Result
	have    map[int]string // accepted tile → its Err ("" once stitched)
	merged  map[int]*render.WorkerStat
}

func newCoord(spec render.Spec, tiles []render.Tile, workers int, field *dtfe.Field) *coord {
	res := &Result{
		Grid:     spec.Grid(),
		Tiles:    tiles,
		TileRank: make([]int, len(tiles)),
	}
	for k := range res.TileRank {
		res.TileRank[k] = -1
	}
	return &coord{
		spec: spec, tiles: tiles, workers: max(workers, 1), field: field, res: res,
		have:   make(map[int]string),
		merged: make(map[int]*render.WorkerStat),
	}
}

// batch is the assignment of tiles with the one slab of rank 0's mesh
// they cross.
func (co *coord) batch(tiles []int) assignBatch {
	a := co.assign(tiles)
	slab := render.CutSlab(co.field, co.spec, span(co.tiles, tiles))
	a.Slab = &slab
	return a
}

// assign is the assignment of tiles without a slab: the spec, the worker
// count, and each tile's index and span.
func (co *coord) assign(tiles []int) assignBatch {
	a := assignBatch{Spec: co.spec, Workers: co.workers}
	for _, k := range tiles {
		a.Tiles = append(a.Tiles, batchTile{K: k, Span: co.tiles[k]})
	}
	return a
}

// wellFormed reports whether r names a tile of the tiling and, when
// healthy, carries exactly that tile's grid (I1-I0 columns, Ny rows, and
// that many data words). Results arrive off the wire; one that fails this
// is never stitched.
func (co *coord) wellFormed(r tileResult) bool {
	if r.Tile < 0 || r.Tile >= len(co.tiles) {
		return false
	}
	t, g := co.tiles[r.Tile], r.Grid
	return r.Err != "" || g != nil && g.Nx == t.Width() && g.Ny == co.spec.Ny && len(g.Data) == g.Nx*g.Ny
}

// accept ingests one tile: a healthy tile's grid is stitched immediately
// and dropped. Returns true when the tile was new (first-wins); duplicates
// and malformed results return false, the latter left un-ingested so the
// deadline re-dispatch recovers the tile.
func (co *coord) accept(r tileResult) bool {
	k := r.Tile
	if !co.wellFormed(r) {
		co.res.Failures = append(co.res.Failures,
			fmt.Sprintf("discarded malformed result for tile %d from rank %d", k, r.Rank))
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
		co.merged = render.MergeWorkerStats(co.merged, r.Stats, r.Rank*co.workers)
	}
	co.have[k] = r.Err
	return true
}

// complete reports whether every tile has been ingested.
func (co *coord) complete() bool { return len(co.have) == len(co.tiles) }

// selfCompute is the fallback of last resort when no live worker is left:
// the coordinator marches every tile still missing with the workers'
// batch code on its own field, which marches bit for bit what a slab of
// it would (DESIGN §7) without copying the mesh. ctx aborts the march at
// the next column so a cancelled caller is not stuck behind a full
// self-march.
func (co *coord) selfCompute(ctx context.Context) error {
	var missing []int
	for k := range co.tiles {
		if _, ok := co.have[k]; !ok {
			missing = append(missing, k)
		}
	}
	b := batch{assignBatch: co.assign(missing), m: render.NewMarcher(co.field)}
	for _, t := range b.Tiles {
		r, err := b.march(ctx, t, 0)
		if err != nil {
			return err
		}
		co.accept(r)
	}
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

// coordinate is the rank-0 side: tile the grid, build the one mesh, hand
// every live rank its static contiguous batch with its slab, then
// stream-stitch the tiles that come back while per-rank deadlines drive
// re-dispatch.
func coordinate(ctx context.Context, c *mpi.Comm, cfg Config, pts []geom.Vec3, h hooks) (*Result, error) {
	spec := cfg.Spec
	nt := cfg.Tiles
	if nt <= 0 {
		nt = 2 * c.Size()
	}
	tiling := makeTiles(spec, pts, nt, h.evenTiles)
	dead := make(map[int]bool)
	shutdown := func() {
		for r := 1; r < c.Size(); r++ {
			if !dead[r] && c.Alive(r) {
				_ = c.Send(r, tagBatch, assignBatch{Shutdown: true})
			}
		}
	}
	if ctx.Err() != nil { // skip the build
		return newCoord(spec, tiling, cfg.Workers, nil).abort(ctx, shutdown)
	}
	// The one build. A catalog New rejects fails here, and the workers
	// leave as from any coordinator that is gone.
	tri, err := delaunay.New(pts)
	if err != nil {
		return nil, err
	}
	field, err := dtfe.NewField(tri, nil)
	if err != nil {
		return nil, err
	}
	co := newCoord(spec, tiling, cfg.Workers, field)
	res := co.res
	liveRanks := func() []int {
		var out []int
		for r := 1; r < c.Size(); r++ {
			if !dead[r] {
				out = append(out, r)
			}
		}
		return out
	}

	timeout := h.tileTimeout
	pending := make(map[int][]int)      // rank → tiles assigned, not yet arrived
	owner := make(map[int]int)          // tile → rank currently responsible
	deadline := make(map[int]time.Time) // rank → progress deadline

	// sendBatch dispatches tiles to rank r with the slab they cross and
	// arms its deadline. The caller writes off a rank whose batch is lost
	// (markDead), and its share is redistributed.
	sendBatch := func(r int, tiles []int) error {
		if err := c.Send(r, tagBatch, co.batch(tiles)); err != nil {
			return err
		}
		for _, k := range tiles {
			owner[k] = r
		}
		pending[r] = append(pending[r], tiles...)
		deadline[r] = time.Now().Add(timeout)
		return nil
	}

	// reassign hands one missing tile to the least-loaded live rank
	// (excluding `not` when another candidate exists). With no live rank
	// it stays unowned for the self-compute fallback.
	var markDead func(r int, why error)
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
			err := sendBatch(best, []int{k})
			if err == nil {
				res.Redispatched++
				return
			}
			markDead(best, err) // and retry with the next-best live rank
		}
	}

	// markDead writes live rank r off for why — its failure, or the batch
	// send mpi gave up on — and redistributes its outstanding share.
	markDead = func(r int, why error) {
		dead[r] = true
		res.Failures = append(res.Failures, fmt.Sprintf("rank %d lost: %s", r, why))
		orphans := pending[r]
		delete(pending, r)
		delete(deadline, r)
		for _, k := range orphans {
			reassign(k, -1)
		}
	}

	// cleared drops an accepted tile from its owner's outstanding share.
	// It is keyed by the tile, never by the sender: a stale result for a
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

	// Initial static distribution: a contiguous block of the cost-balanced
	// tiles to each live rank, so each batch crosses one slab of the mesh.
	live := liveRanks()
	for i, tiles := range shares(len(co.tiles), len(live)) {
		if len(tiles) > 0 {
			if err := sendBatch(live[i], tiles); err != nil {
				markDead(live[i], err)
			}
		}
	}

	epoch := c.FailureEpoch()
	for !co.complete() {
		if ctx.Err() != nil {
			return co.abort(ctx, shutdown)
		}
		for _, r := range c.FailedRanks() {
			if !dead[r] {
				markDead(r, c.RankFailure(r))
			}
		}
		// Straggler expiry: a rank with outstanding tiles and no accepted
		// progress within its deadline has its head tile stolen and
		// re-dispatched; the remaining share gets a fresh window (either
		// the rank is slow — its eventual duplicates are deduped — or its
		// results were lost or malformed, and the re-dispatch recovers them).
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
		// Event-driven wait until the next result, membership change,
		// cancellation, or earliest rank deadline. A deadline that lapsed
		// since the expiry scan makes the wait negative, which RecvTolerant
		// would read as "block indefinitely": clamp it to a poll. With no
		// live worker left the wait is a poll that drains the results
		// already delivered before the fallback below.
		wait := time.Second
		now = time.Now()
		for r, d := range deadline {
			if len(pending[r]) == 0 {
				continue
			}
			if rem := d.Sub(now); rem < wait {
				wait = rem
			}
		}
		orphaned := len(liveRanks()) == 0
		if orphaned {
			wait = 0
		}
		msg, ep, err := c.RecvTolerant(ctx, tagResult, epoch, max(wait, 0))
		epoch = ep
		if err != nil {
			// Self-compute fallback: no live worker is left (or the world
			// never had one) and nothing is waiting, so the root marches
			// what is missing itself — unless a test hook forbids it, and
			// then the remainder is lost.
			if orphaned && errors.Is(err, mpi.ErrTimeout) {
				if h.noCoordinatorCompute {
					break
				}
				if err := co.selfCompute(ctx); err != nil {
					if ctx.Err() != nil {
						return co.abort(ctx, shutdown)
					}
					return nil, err
				}
				break
			}
			// A cancellation is handled at the top of the loop.
			if errors.Is(err, mpi.ErrTimeout) || errors.Is(err, mpi.ErrWorldChanged) || ctx.Err() != nil {
				continue
			}
			return nil, fmt.Errorf("distrender: gather: %w", err)
		}
		var r tileResult
		if err := msg.Decode(&r); err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("gather decode: %s", err))
		} else if co.accept(r) {
			cleared(r.Tile)
		}
	}

	shutdown()
	return co.finalize()
}

// shares splits tiles 0..nt-1 into n contiguous blocks of nearly equal
// count, the static share of each of n ranks; a block is empty when there
// are fewer tiles than ranks.
func shares(nt, n int) [][]int {
	out := make([][]int, n)
	for i := range out {
		for k := i * nt / n; k < (i+1)*nt/n; k++ {
			out[i] = append(out[i], k)
		}
	}
	return out
}

// span is the column block from the first to the last column of tiles.
func span(all []render.Tile, tiles []int) render.Tile {
	s := all[tiles[0]]
	for _, k := range tiles[1:] {
		s.I0, s.I1 = min(s.I0, all[k].I0), max(s.I1, all[k].I1)
	}
	return s
}

func removeTile(s []int, k int) []int {
	for i, v := range s {
		if v == k {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}
