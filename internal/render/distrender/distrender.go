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
// Two decomposition modes:
//
//   - Replication (Halo <= 0, the default): the full catalog is broadcast
//     once and every rank builds the same triangulation. The build is
//     deterministic and column marching is independent, so the stitched
//     grid is byte-identical to a single-rank render — the invariant the
//     test suite pins. This is the paper's Section V shape (ghost-zone
//     style replication of the input, decomposition of the output).
//   - Halo subsets (Halo > 0): each tile ships only the particles within
//     Halo of its column span and the worker triangulates the subset. A
//     subset triangulation can diverge from the full one near its fringe,
//     so each tile also renders Guard duplicate columns past its interior
//     edges; at stitch time the coordinator cross-checks every duplicated
//     column bit-for-bit and surfaces any disagreement as a typed
//     geomerr.ErrHaloMismatch instead of silently stitching corruption.
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
	"math"
	"time"

	"godtfe/internal/delaunay"
	"godtfe/internal/dtfe"
	"godtfe/internal/fault"
	"godtfe/internal/geom"
	"godtfe/internal/geomerr"
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
	// CostBeta is the marching-cost exponent for tile balancing
	// (DefaultCostBeta when 0).
	CostBeta float64

	// Workers is the shared-memory worker count each rank marches with
	// (1 when 0) and Sched its row schedule.
	Workers int
	Sched   render.Schedule

	// Fanout is the gather-tree arity (DefaultFanout when 0; 1 is a chain,
	// >= world size a star). Gather == GatherFlat is an alias for
	// "Fanout = world size" and overrides Fanout; the other modes change
	// nothing. The root resolves the arity and broadcasts it, so all ranks
	// always agree on the topology.
	Fanout int
	Gather GatherMode

	// Halo <= 0 selects replication mode. Halo > 0 ships per-tile
	// particle subsets within Halo of the tile's x-span and enables the
	// guard-column cross-check.
	Halo float64
	// Guard is the number of duplicate boundary columns rendered per
	// interior tile edge in subset mode (default 1).
	Guard int
	// noCertify disables the certified-halo optimization: without it, a
	// subset-mode worker that can prove from its subset triangulation that
	// the configured halo suffices for its tile skips the guard-column
	// renders (they would compare equal by construction). Only the
	// in-package tests that exercise the guard path set it.
	noCertify bool

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

func (cfg *Config) guard() int {
	if cfg.Guard > 0 {
		return cfg.Guard
	}
	return 1
}

// Result is the stitched output of a distributed render.
type Result struct {
	// Grid is the full stitched surface-density grid. Lost tiles (only
	// possible when Incomplete) are left zero.
	Grid *grid.Grid2D
	// Stats are the gathered worker stats with globally re-based worker
	// ids (rank r's local worker w becomes r*Workers+w).
	Stats []render.WorkerStat
	// Outcomes sums every marched column's outcome over owned columns
	// (guard duplicates are excluded, so totals match a single-rank
	// render exactly).
	Outcomes render.OutcomeCounts

	// Tiles is the tiling; TileRank[k] is the rank whose result for
	// tile k was stitched (-1 if lost).
	Tiles    []render.Tile
	TileRank []int

	// Fanout is the resolved gather-tree arity.
	Fanout int
	// CertifiedHalo is the halo width above which subset renders are
	// provably byte-identical (CertifiedHaloBound; 0 when unavailable).
	// CertifiedTiles counts the tiles stitched with that certificate in
	// force — their guard renders were skipped as provably redundant.
	CertifiedHalo  float64
	CertifiedTiles int

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

// buildMarcher triangulates a catalog and prepares the SoA kernel. The
// triangulation is returned alongside so subset-mode workers can run the
// halo certificate against it.
func buildMarcher(pts []geom.Vec3) (*render.Marcher, *delaunay.Triangulation, error) {
	tri, err := delaunay.New(pts)
	if err != nil {
		return nil, nil, err
	}
	f, err := dtfe.NewField(tri, nil)
	if err != nil {
		return nil, nil, err
	}
	return render.NewMarcher(f), tri, nil
}

// subsetFor selects the particles within halo of a tile's marched x-span
// (owned plus guard columns; jittered samples stay inside the cell, so the
// span of cell edges bounds every line of sight).
func subsetFor(spec render.Spec, t render.Tile, gl, gr int, halo float64, pts []geom.Vec3) []geom.Vec3 {
	lo := spec.Min.X + float64(t.I0-gl)*spec.Cell - halo
	hi := spec.Min.X + float64(t.I1+gr)*spec.Cell + halo
	out := make([]geom.Vec3, 0, len(pts)/2)
	for _, p := range pts {
		if p.X >= lo && p.X <= hi {
			out = append(out, p)
		}
	}
	return out
}

// marchTile renders one assignment: the owned tile plus any guard columns,
// against either the replicated marcher or a subset triangulation built
// from the message's particles. ctx aborts the march at the next column
// (the coordinator's self-compute path passes its caller's context;
// workers pass Background and rely on the shutdown protocol instead). A
// context error propagates as the rank-level error — it is the caller
// cancelling, not the tile failing.
func marchTile(ctx context.Context, cfg Config, m *render.Marcher, msg tileMsg) (res tileResult, err error) {
	res.Tile = msg.Tile
	if msg.Subset {
		// An empty subset (void tile) fails the triangulation build; that
		// is a tile-level failure to report, never a rank-fatal one.
		if m, _, err = buildMarcher(msg.Particles); err != nil {
			res.Err = err.Error()
			return res, nil
		}
	}
	spec := cfg.Spec
	owned := render.Tile{I0: msg.I0, I1: msg.I1}
	g, stats, err := m.RenderTileCtx(ctx, spec, owned, cfg.Workers, cfg.Sched)
	if err != nil {
		if ctx.Err() != nil {
			return res, err
		}
		res.Err = err.Error()
		return res, nil
	}
	res.Grid, res.Stats = g, stats
	gl, gr := msg.GL, msg.GR
	if msg.Certified {
		// The coordinator proved the configured halo sufficient
		// (CertifiedHaloBound): the guard columns would compare equal by
		// construction, so rendering them is pure overhead.
		res.Certified = true
		gl, gr = 0, 0
	}
	if gl > 0 {
		gL, _, err := m.RenderTileCtx(ctx, spec, render.Tile{I0: msg.I0 - gl, I1: msg.I0}, cfg.Workers, cfg.Sched)
		if err != nil {
			if ctx.Err() != nil {
				return res, err
			}
			res.Err = err.Error()
			return res, nil
		}
		res.GuardL = gL
	}
	if gr > 0 {
		gR, _, err := m.RenderTileCtx(ctx, spec, render.Tile{I0: msg.I1, I1: msg.I1 + gr}, cfg.Workers, cfg.Sched)
		if err != nil {
			if ctx.Err() != nil {
				return res, err
			}
			res.Err = err.Error()
			return res, nil
		}
		res.GuardR = gR
	}
	return res, nil
}

// coord is the rank-0 gather state. Tile grids are stitched into the output
// grid the moment they are accepted (streaming stitch); only tile metadata —
// guards, stats, failure strings — is retained per tile, so the
// coordinator's footprint is one output grid regardless of tile count or
// fanout.
type coord struct {
	cfg        Config
	spec       render.Spec
	tiles      []render.Tile
	res        *Result
	have       map[int]tileResult // accepted tiles, metadata only (Grid nil)
	merged     map[int]*render.WorkerStat
	workersAll int
	guard      int
	subset     bool
	certified  bool // halo cleared CertifiedHaloBound: assignments skip guards
	pts        []geom.Vec3
}

func newCoord(cfg Config, tiles []render.Tile, subset bool, guard int, pts []geom.Vec3) *coord {
	workersAll := cfg.Workers
	if workersAll <= 0 {
		workersAll = 1
	}
	res := &Result{
		Grid:     cfg.Spec.Grid(),
		Tiles:    tiles,
		TileRank: make([]int, len(tiles)),
	}
	for k := range res.TileRank {
		res.TileRank[k] = -1
	}
	return &coord{
		cfg: cfg, spec: cfg.Spec, tiles: tiles, res: res,
		have:       make(map[int]tileResult),
		merged:     make(map[int]*render.WorkerStat),
		workersAll: workersAll, guard: guard, subset: subset, pts: pts,
	}
}

func (co *coord) msgFor(k int) tileMsg {
	t := co.tiles[k]
	msg := tileMsg{Tile: k, I0: t.I0, I1: t.I1}
	if co.subset {
		msg.Subset = true
		msg.Certified = co.certified
		msg.GL = min(co.guard, t.I0)
		msg.GR = min(co.guard, co.spec.Nx-t.I1)
		msg.Particles = subsetFor(co.spec, t, msg.GL, msg.GR, co.cfg.Halo, co.pts)
	}
	return msg
}

// accept ingests one tile: g holds the tile's values with global column
// gi0 at local column 0 (it may be a shared span buffer covering more than
// this tile — only the tile's own columns are read). The grid is stitched
// immediately and only metadata retained. Returns true when the tile was
// new (first-wins); duplicates and malformed frames return false, the
// latter left un-ingested so the deadline re-dispatch recovers the tile.
func (co *coord) accept(meta tileResult, g *grid.Grid2D, gi0 int) bool {
	k := meta.Tile
	if k < 0 || k >= len(co.tiles) {
		co.res.Failures = append(co.res.Failures,
			fmt.Sprintf("discarded result for unknown tile %d from rank %d", k, meta.Rank))
		return false
	}
	if _, ok := co.have[k]; ok {
		co.res.Duplicates++
		return false
	}
	t := co.tiles[k]
	if meta.Err == "" {
		if g == nil || g.Ny != co.spec.Ny || gi0 > t.I0 || gi0+g.Nx < t.I1 {
			co.res.Failures = append(co.res.Failures,
				fmt.Sprintf("discarded malformed grid frame for tile %d from rank %d", k, meta.Rank))
			return false
		}
		off := t.I0 - gi0
		for j := 0; j < co.spec.Ny; j++ {
			for i := 0; i < t.I1-t.I0; i++ {
				co.res.Grid.Set(t.I0+i, j, g.At(off+i, j))
			}
		}
		co.res.TileRank[k] = meta.Rank
		co.merged = render.MergeWorkerStats(co.merged, meta.Stats, meta.Rank*co.workersAll)
		if meta.Certified {
			co.res.CertifiedTiles++
		}
	}
	meta.Grid = nil
	co.have[k] = meta
	return true
}

// complete reports whether every tile has been ingested.
func (co *coord) complete() bool { return len(co.have) == len(co.tiles) }

// selfCompute marches one tile on the coordinator (the fallback of last
// resort when no live worker can take it). ctx aborts the march at the
// next column so a cancelled caller is not stuck behind a full self-march.
func (co *coord) selfCompute(ctx context.Context, k int, marcher **render.Marcher) error {
	msg := co.msgFor(k)
	var m *render.Marcher
	if !co.subset {
		if *marcher == nil {
			cm, _, err := buildMarcher(co.pts)
			if err != nil {
				return err
			}
			*marcher = cm
		}
		m = *marcher
		msg.Particles = nil
	}
	r, err := marchTile(ctx, co.cfg, m, msg)
	if err != nil {
		return err
	}
	r.Rank = 0
	co.accept(r, r.Grid, co.tiles[k].I0)
	return nil
}

// finalize enumerates lost/failed tiles, cross-checks guard duplicates in
// subset mode, and folds the gathered stats.
func (co *coord) finalize() (*Result, error) {
	res := co.res
	var firstErr error
	for k, t := range co.tiles {
		r, ok := co.have[k]
		if !ok || r.Err != "" {
			res.Incomplete = true
			res.Lost = append(res.Lost, k)
			why := "never completed"
			if ok {
				why = r.Err
			}
			res.Failures = append(res.Failures, fmt.Sprintf("tile %d [%d,%d): %s", k, t.I0, t.I1, why))
		}
	}
	if co.guard > 0 {
		if err := checkGuards(co.spec, res, co.tiles, co.have, co.guard); err != nil {
			firstErr = err
		}
	}
	res.Stats = render.FlattenWorkerStats(co.merged)
	res.Outcomes = render.TotalOutcomes(res.Stats)
	if res.Incomplete && firstErr == nil {
		firstErr = fmt.Errorf("distrender: incomplete render: %d tile(s) lost", len(res.Lost))
	}
	return res, firstErr
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
	tiles := MakeTiles(spec, pts, nt, cfg.EvenTiles, cfg.CostBeta)

	subset := cfg.Halo > 0
	guard := 0
	if subset {
		guard = cfg.guard()
	}
	setup := setupMsg{
		Spec: spec, Tiles: tiles, Workers: cfg.Workers, Sched: cfg.Sched,
		Halo: cfg.Halo, Guard: guard, Fanout: cfg.fanout(c.Size()),
	}
	if !subset {
		setup.Particles = pts
	}

	co := newCoord(cfg, tiles, subset, guard, pts)
	res := co.res
	res.Fanout = setup.Fanout
	if subset && guard > 0 && !cfg.noCertify {
		// Certified halo: one full triangulation up front buys every tile
		// out of its guard renders when the configured halo provably
		// suffices. Failure to certify (degenerate circumspheres, halo
		// below the bound) just leaves the guard cross-check in place.
		if tri, err := delaunay.New(pts); err == nil {
			if bound, ok := CertifiedHaloBound(tri); ok {
				res.CertifiedHalo = bound
				co.certified = cfg.Halo >= bound
			}
		}
	}
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
		b := assignBatch{Tiles: make([]tileMsg, 0, len(tiles))}
		for _, k := range tiles {
			b.Tiles = append(b.Tiles, co.msgFor(k))
		}
		if err := c.Send(r, tagBatch, b); err != nil {
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
	for _, tf := range f.Tiles {
		// Ack everything in the frame — duplicates and malformed entries
		// included — so the child stops re-sending; a tile rejected as
		// malformed is recovered by the deadline re-dispatch, not by a
		// retry of the same bytes.
		ack.Tiles = append(ack.Tiles, tf.Tile)
		meta := tileResult{
			Tile: tf.Tile, Rank: tf.Rank, Err: tf.Err, Certified: tf.Certified,
			GuardL: tf.GuardL, GuardR: tf.GuardR, Stats: tf.Stats,
		}
		g, gi0 := findSpan(f.Spans, tf.I0, tf.I1)
		if meta.Err == "" && !spanMatchesTile(co, tf) {
			co.res.Failures = append(co.res.Failures,
				fmt.Sprintf("discarded frame for tile %d: span [%d,%d) does not match tiling", tf.Tile, tf.I0, tf.I1))
			continue
		}
		if co.accept(meta, g, gi0) {
			cleared(tf.Tile)
		}
	}
	_ = c.Send(msg.Src, tagAck, ack)
}

// spanMatchesTile verifies a frame's claimed column span against the
// authoritative tiling (frames cross multiple hops; a corrupt span must
// not be stitched at the wrong offset).
func spanMatchesTile(co *coord, tf tileFrame) bool {
	if tf.Tile < 0 || tf.Tile >= len(co.tiles) {
		return false
	}
	t := co.tiles[tf.Tile]
	return tf.I0 == t.I0 && tf.I1 == t.I1
}

// findSpan locates the span grid covering global columns [i0, i1) and
// returns it with its global first column.
func findSpan(spans []gridSpan, i0, i1 int) (*grid.Grid2D, int) {
	for _, s := range spans {
		if s.Grid != nil && s.I0 <= i0 && i1 <= s.I0+s.Grid.Nx {
			return s.Grid, s.I0
		}
	}
	return nil, 0
}

// checkGuards compares every guard (duplicate) column against the owning
// tile's stitched values, bit for bit. The first mismatch is returned as a
// typed geomerr.HaloMismatchError and the result flagged Incomplete —
// a too-small halo must be detected, never silently stitched.
func checkGuards(spec render.Spec, res *Result, tiles []render.Tile, results map[int]tileResult, guard int) error {
	var firstErr error
	note := func(err error) {
		res.Incomplete = true
		res.Failures = append(res.Failures, err.Error())
		if firstErr == nil {
			firstErr = err
		}
	}
	owner := func(i int) int {
		for k, t := range tiles {
			if i >= t.I0 && i < t.I1 {
				return k
			}
		}
		return -1
	}
	healthy := func(k int) bool {
		r, ok := results[k]
		return ok && r.Err == ""
	}
	cmp := func(tileK int, g *grid.Grid2D, gi0 int) {
		if g == nil || firstErr != nil {
			return
		}
		for gi := 0; gi < g.Nx; gi++ {
			// A guard column owned by a lost or failed tile has only zeros
			// in the stitched grid — comparing against it would misreport
			// the loss (already flagged Incomplete) as halo corruption.
			i := gi0 + gi
			ownerK := owner(i)
			if ownerK < 0 || !healthy(ownerK) {
				continue
			}
			for j := 0; j < spec.Ny; j++ {
				a := res.Grid.At(i, j) // owner's stitched value
				b := g.At(gi, j)       // this tile's guard duplicate
				if math.Float64bits(a) != math.Float64bits(b) {
					note(&geomerr.HaloMismatchError{
						TileA: ownerK, TileB: tileK, Column: i, Row: j, A: a, B: b,
					})
					return
				}
			}
		}
	}
	for k, t := range tiles {
		if !healthy(k) {
			continue
		}
		r := results[k]
		if gl := min(guard, t.I0); gl > 0 {
			cmp(k, r.GuardL, t.I0-gl)
		}
		if gr := min(guard, spec.Nx-t.I1); gr > 0 {
			cmp(k, r.GuardR, t.I1)
		}
	}
	return firstErr
}
