package distrender

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"godtfe/internal/fault"
	"godtfe/internal/geom"
	"godtfe/internal/grid"
	"godtfe/internal/mpi"
	"godtfe/internal/render"
	"godtfe/internal/synth"
)

// testCatalogs mirrors the render package's equivalence-test families:
// clustered halos, an exact lattice (degenerate cosphericity, grid-aligned
// columns), and a dirty mix with duplicates and coplanar points.
func testCatalogs() map[string][]geom.Vec3 {
	cats := make(map[string][]geom.Vec3)

	box := geom.AABB{Min: geom.Vec3{}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	cats["clustered"] = synth.HaloSet(1500, box, synth.DefaultHaloSpec(), 7)

	var lattice []geom.Vec3
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			for k := 0; k < 6; k++ {
				lattice = append(lattice, geom.Vec3{X: float64(i) / 5, Y: float64(j) / 5, Z: float64(k) / 5})
			}
		}
	}
	cats["lattice"] = lattice

	rng := rand.New(rand.NewSource(42))
	var dirty []geom.Vec3
	for len(dirty) < 300 {
		p := geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		dirty = append(dirty, p)
		if rng.Float64() < 0.2 {
			dirty = append(dirty, p)
		}
		if rng.Float64() < 0.3 {
			dirty = append(dirty, geom.Vec3{
				X: math.Round(p.X*4) / 4, Y: math.Round(p.Y*4) / 4, Z: p.Z,
			})
		}
	}
	cats["dirty"] = dirty
	return cats
}

func testSpec(pts []geom.Vec3) render.Spec {
	b := geom.BoundsOf(pts)
	const n = 48
	pad := 0.02 * (b.Max.X - b.Min.X)
	w := math.Max(b.Max.X-b.Min.X, b.Max.Y-b.Min.Y) + 2*pad
	return render.Spec{
		Min: geom.Vec2{X: b.Min.X - pad, Y: b.Min.Y - pad},
		Nx:  n, Ny: n, Cell: w / n,
		Samples: 2, Seed: 5,
	}
}

// singleRank renders the reference the distributed output must match byte
// for byte.
func singleRank(t testing.TB, pts []geom.Vec3, spec render.Spec) (*grid.Grid2D, render.OutcomeCounts) {
	t.Helper()
	m, err := buildMarcher(pts)
	if err != nil {
		t.Fatal(err)
	}
	g, stats, err := m.Render(spec, 3, render.ScheduleDynamic)
	if err != nil {
		t.Fatal(err)
	}
	return g, render.TotalOutcomes(stats)
}

// runDistributed executes one distributed render over a fresh in-process
// world and returns rank 0's Result plus every rank's exit error.
func runDistributed(ranks int, cfg Config, pts []geom.Vec3, inj *fault.Injector) (*Result, error, []error) {
	w := mpi.NewWorld(ranks)
	if inj != nil {
		w.SetInjector(inj)
		cfg.Fault = inj
	}
	var res *Result
	var resErr error
	errs := w.RunEach(func(c *mpi.Comm) error {
		r, err := RunCtx(context.Background(), c, cfg, pts)
		if c.Rank() == 0 {
			res, resErr = r, err
			return err
		}
		return err
	})
	return res, resErr, errs
}

func pgmBytes(t testing.TB, g *grid.Grid2D) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WritePGM(&buf, true); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func assertGridsIdentical(t *testing.T, want, got *grid.Grid2D) {
	t.Helper()
	if want.Nx != got.Nx || want.Ny != got.Ny {
		t.Fatalf("grid shape: want %dx%d, got %dx%d", want.Nx, want.Ny, got.Nx, got.Ny)
	}
	for j := 0; j < want.Ny; j++ {
		for i := 0; i < want.Nx; i++ {
			a, b := want.At(i, j), got.At(i, j)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("cell (%d,%d): reference %v (%x), distributed %v (%x)",
					i, j, a, math.Float64bits(a), b, math.Float64bits(b))
			}
		}
	}
}

// starArities are the gather fan-outs, out of {1, 2, 4, 16}, that describe
// a star at the given rank count: a k-ary gather tree rooted at rank 0 is
// the star exactly when k >= ranks-1. The star is the one topology the
// renderer runs, so these are the fan-out labels the bit-identity matrix
// names; every label runs the same star.
func starArities(ranks int) []int {
	var fs []int
	for _, f := range []int{1, 2, 4, 16} {
		if f >= ranks-1 {
			fs = append(fs, f)
		}
	}
	return fs
}

// TestDistributedMatchesSingleRank is the package's core invariant: for
// every reference catalog, rank count, star fan-out label and tile split,
// the sharded render's grid values, PGM bytes and summed column outcomes
// are byte-identical to the single-rank reference, and the gathered worker
// stats carry globally re-based ids (rank r's local worker w is
// r*Workers+w — distinct ranks never collide) that cover every cell
// exactly once.
func TestDistributedMatchesSingleRank(t *testing.T) {
	const workers = 2
	for name, pts := range testCatalogs() {
		spec := testSpec(pts)
		ref, refOutcomes := singleRank(t, pts, spec)
		refPGM := pgmBytes(t, ref)
		for _, ranks := range []int{1, 2, 3, 4, 7, 9} {
			for _, fanout := range starArities(ranks) {
				for _, split := range []string{"even", "uneven"} {
					even := split == "even"
					t.Run(fmt.Sprintf("%s/%s/ranks=%d/fanout=%d", name, split, ranks, fanout), func(t *testing.T) {
						cfg := Config{
							Spec: spec, Workers: workers, EvenTiles: even,
							Tiles: 2*ranks + 1, // odd count: tiles never align with ranks
						}
						res, err, errs := runDistributed(ranks, cfg, pts, nil)
						if err != nil {
							t.Fatal(err)
						}
						for r, e := range errs {
							if e != nil {
								t.Fatalf("rank %d: %v", r, e)
							}
						}
						if res.Incomplete {
							t.Fatalf("unexpected partial result: %v", res.Failures)
						}
						assertGridsIdentical(t, ref, res.Grid)
						if !bytes.Equal(refPGM, pgmBytes(t, res.Grid)) {
							t.Fatal("PGM bytes differ from single-rank reference")
						}
						if res.Outcomes != refOutcomes {
							t.Fatalf("outcome counts: reference %v, distributed %v", refOutcomes, res.Outcomes)
						}
						seen := make(map[int]bool)
						ranksSeen := make(map[int]bool)
						cells := 0
						for _, s := range res.Stats {
							if seen[s.Worker] {
								t.Fatalf("worker id %d appears twice in merged stats", s.Worker)
							}
							seen[s.Worker] = true
							r := s.Worker / workers
							if r >= ranks || (r == 0) != (ranks == 1) {
								t.Fatalf("worker id %d re-based to rank %d of %d", s.Worker, r, ranks)
							}
							ranksSeen[r] = true
							cells += s.Cells
						}
						if len(ranksSeen) != max(1, ranks-1) {
							t.Fatalf("stats from ranks %v, want every marching rank of %d", ranksSeen, ranks)
						}
						if cells != spec.Nx*spec.Ny {
							t.Fatalf("merged stats cover %d cells, grid has %d", cells, spec.Nx*spec.Ny)
						}
					})
				}
			}
		}
	}
}

// TestGatherModeInert pins that Config.Gather selects nothing: every mode
// renders the same star and the same grid bits.
func TestGatherModeInert(t *testing.T) {
	pts := testCatalogs()["dirty"]
	spec := testSpec(pts)
	ref, refOutcomes := singleRank(t, pts, spec)
	for _, mode := range []GatherMode{GatherAuto, GatherFlat, GatherTree} {
		res, err, _ := runDistributed(5, Config{Spec: spec, Workers: 2, Gather: mode}, pts, nil)
		if err != nil {
			t.Fatalf("Gather %d: %v", mode, err)
		}
		assertGridsIdentical(t, ref, res.Grid)
		if res.Outcomes != refOutcomes {
			t.Fatalf("Gather %d: outcome counts: reference %v, distributed %v", mode, refOutcomes, res.Outcomes)
		}
	}
}

// TestMergeWorkerStats covers the render-layer helper directly: same-id
// stats accumulate, different bases never collide.
func TestMergeWorkerStats(t *testing.T) {
	a := []render.WorkerStat{{Worker: 0, Cells: 5}, {Worker: 1, Cells: 7}}
	b := []render.WorkerStat{{Worker: 0, Cells: 11}, {Worker: 1, Cells: 13}}
	m := render.MergeWorkerStats(nil, a, 0)
	m = render.MergeWorkerStats(m, b, 2)
	m = render.MergeWorkerStats(m, a, 0) // second tile from rank 0
	flat := render.FlattenWorkerStats(m)
	if len(flat) != 4 {
		t.Fatalf("want 4 distinct workers, got %d", len(flat))
	}
	wantCells := map[int]int{0: 10, 1: 14, 2: 11, 3: 13}
	for _, s := range flat {
		if s.Cells != wantCells[s.Worker] {
			t.Fatalf("worker %d: cells %d, want %d", s.Worker, s.Cells, wantCells[s.Worker])
		}
	}
}

// --- chaos suite -----------------------------------------------------------

// TestChaosRankCrashMidTile: a rank crashing mid-render at 4 ranks must be
// detected and its tiles re-dispatched, recovering the bit-exact grid.
func TestChaosRankCrashMidTile(t *testing.T) {
	pts := testCatalogs()["clustered"]
	spec := testSpec(pts)
	ref, refOutcomes := singleRank(t, pts, spec)

	inj := fault.New(fault.Plan{
		Seed:    1,
		Crashes: []fault.Crash{{Rank: 2, Point: fault.PointTile, After: 1}},
	})
	cfg := Config{Spec: spec, Workers: 2, Tiles: 9, TileTimeout: 300 * time.Millisecond}
	res, err, errs := runDistributed(4, cfg, pts, inj)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(errs[2], fault.ErrInjectedCrash) {
		t.Fatalf("rank 2 should have crashed, got %v", errs[2])
	}
	if res.Incomplete {
		t.Fatalf("crash recovery left a partial result: %v", res.Failures)
	}
	assertGridsIdentical(t, ref, res.Grid)
	if res.Outcomes != refOutcomes {
		t.Fatalf("outcome counts after recovery: want %v, got %v", refOutcomes, res.Outcomes)
	}
}

// TestChaosStraggler: a slowed rank's overdue tiles are re-dispatched; the
// duplicate results are resolved first-wins and the grid stays bit-exact.
func TestChaosStraggler(t *testing.T) {
	pts := testCatalogs()["dirty"]
	spec := testSpec(pts)
	ref, _ := singleRank(t, pts, spec)

	inj := fault.New(fault.Plan{
		Seed:             2,
		Stragglers:       []fault.Straggler{{Rank: 1, Factor: 200}},
		MaxStraggleSleep: 150 * time.Millisecond,
	})
	cfg := Config{Spec: spec, Workers: 2, Tiles: 6, TileTimeout: 40 * time.Millisecond}
	res, err, errs := runDistributed(3, cfg, pts, inj)
	if err != nil {
		t.Fatal(err)
	}
	for r, e := range errs {
		if e != nil {
			t.Fatalf("rank %d: %v", r, e)
		}
	}
	if res.Incomplete {
		t.Fatalf("straggler run left a partial result: %v", res.Failures)
	}
	assertGridsIdentical(t, ref, res.Grid)
}

// TestChaosDroppedResult: gather messages dropped past the send retry
// budget surface as lost sends on the worker; the coordinator's deadline
// re-dispatch recovers the tiles and the grid stays bit-exact.
func TestChaosDroppedResult(t *testing.T) {
	pts := testCatalogs()["lattice"]
	spec := testSpec(pts)
	ref, _ := singleRank(t, pts, spec)

	inj := fault.New(fault.Plan{
		Seed:      3,
		DropProb:  0.4,
		DropCount: 5, // beyond the retry budget: some sends are truly lost
	})
	cfg := Config{
		Spec: spec, Workers: 2, Tiles: 8,
		TileTimeout: 100 * time.Millisecond, MaxSendRetries: 2,
	}
	res, err, errs := runDistributed(3, cfg, pts, inj)
	if err != nil {
		t.Fatal(err)
	}
	for r, e := range errs {
		if e != nil {
			t.Fatalf("rank %d: %v", r, e)
		}
	}
	assertGridsIdentical(t, ref, res.Grid)
}

// TestChaosAllWorkersLost: when every worker dies and the coordinator is
// forbidden from computing (NoCoordinatorCompute), the Result must be a
// correctly flagged partial — lost tiles enumerated, never silent zeros.
func TestChaosAllWorkersLost(t *testing.T) {
	pts := testCatalogs()["dirty"]
	spec := testSpec(pts)

	inj := fault.New(fault.Plan{
		Seed: 4,
		Crashes: []fault.Crash{
			{Rank: 1, Point: fault.PointTile, After: 1},
			{Rank: 2, Point: fault.PointTile, After: 1},
		},
	})
	cfg := Config{
		Spec: spec, Workers: 2, Tiles: 8,
		TileTimeout: 200 * time.Millisecond, NoCoordinatorCompute: true,
	}
	res, err, errs := runDistributed(3, cfg, pts, inj)
	if err == nil {
		t.Fatal("expected an incomplete-render error")
	}
	if res == nil {
		t.Fatal("partial result must still be returned")
	}
	if !res.Incomplete || len(res.Lost) == 0 {
		t.Fatalf("result not flagged partial: incomplete=%v lost=%v", res.Incomplete, res.Lost)
	}
	if len(res.Lost)+countStitched(res) != len(res.Tiles) {
		t.Fatalf("lost (%d) + stitched (%d) tiles != total (%d)",
			len(res.Lost), countStitched(res), len(res.Tiles))
	}
	for _, e := range errs[1:] {
		if !errors.Is(e, fault.ErrInjectedCrash) {
			t.Fatalf("worker should have crashed, got %v", e)
		}
	}
}

// TestChaosCrashBeforeSend: rank 1 dies between a march and the send of
// its second frame, taking a marched-but-unsent tile and the rest of its
// batch with it. The coordinator must write the rank off, re-dispatch its
// whole share, and still stitch the bit-exact grid.
func TestChaosCrashBeforeSend(t *testing.T) {
	pts := testCatalogs()["clustered"]
	spec := testSpec(pts)
	ref, refOutcomes := singleRank(t, pts, spec)

	inj := fault.New(fault.Plan{
		Seed:    11,
		Crashes: []fault.Crash{{Rank: 1, Point: fault.PointRelay, After: 1}},
	})
	cfg := Config{Spec: spec, Workers: 2, Tiles: 15, TileTimeout: 300 * time.Millisecond}
	res, err, errs := runDistributed(4, cfg, pts, inj)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(errs[1], fault.ErrInjectedCrash) {
		t.Fatalf("rank 1 should have crashed before its second send, got %v", errs[1])
	}
	for _, r := range []int{2, 3} {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
	}
	if res.Incomplete {
		t.Fatalf("crash before send left a partial result: %v", res.Failures)
	}
	if res.Redispatched == 0 {
		t.Fatal("the crashed rank's tiles were never re-dispatched")
	}
	assertGridsIdentical(t, ref, res.Grid)
	if res.Outcomes != refOutcomes {
		t.Fatalf("outcome counts after recovery: want %v, got %v", refOutcomes, res.Outcomes)
	}
}

// TestFailedRankAttributionInResult: when a rank dies, the gather must name
// it in Result.Failures with the underlying cause — operators debugging a
// 1k-rank run need the rank id, not just "a rank died somewhere".
func TestFailedRankAttributionInResult(t *testing.T) {
	pts := testCatalogs()["clustered"]
	spec := testSpec(pts)
	t.Run("star", func(t *testing.T) {
		// Crash rank 2 on its very first tile (After: 0): every live
		// worker's static batch holds at least one tile, so the crash
		// fires on any schedule.
		inj := fault.New(fault.Plan{
			Seed:    16,
			Crashes: []fault.Crash{{Rank: 2, Point: fault.PointTile, After: 0}},
		})
		cfg := Config{Spec: spec, Workers: 2, Tiles: 8, TileTimeout: 300 * time.Millisecond}
		res, err, errs := runDistributed(5, cfg, pts, inj)
		if err != nil {
			t.Fatal(err)
		}
		if !errors.Is(errs[2], fault.ErrInjectedCrash) {
			t.Fatalf("rank 2 should have crashed, got %v", errs[2])
		}
		if res.Incomplete {
			t.Fatalf("crash recovery left a partial result: %v", res.Failures)
		}
		var attributed bool
		for _, f := range res.Failures {
			if strings.Contains(f, "rank 2 lost") && strings.Contains(f, "injected crash") {
				attributed = true
			}
		}
		if !attributed {
			t.Fatalf("failed rank not attributed in Failures: %v", res.Failures)
		}
	})
}

// scriptedWorker is rank 1 of a two-rank world whose rank 0 runs the real
// coordinator: it has taken the setup broadcast and built the mesh, and the
// test's script decides which frames it sends and when. Acks pile up unread
// in the mailbox unless the script receives them; nothing is ever re-sent.
type scriptedWorker struct {
	c     *mpi.Comm
	setup setupMsg
	m     *render.Marcher
}

func (w *scriptedWorker) march(k int) (tileResult, error) {
	return marchTile(context.Background(), w.m, &w.setup, k, w.c.Rank())
}

func (w *scriptedWorker) send(tiles ...tileResult) error {
	return w.c.Send(0, tagFrame, treeFrame{Tiles: tiles})
}

// serveUntilShutdown marches and sends every tile of every further batch.
func (w *scriptedWorker) serveUntilShutdown() error {
	for {
		var b assignBatch
		if _, err := w.c.Recv(0, tagBatch, &b); err != nil {
			if errors.Is(err, mpi.ErrRankFailed) {
				return nil
			}
			return err
		}
		if b.Shutdown {
			return nil
		}
		for _, k := range b.Tiles {
			r, err := w.march(k)
			if err != nil {
				return err
			}
			if err := w.send(r); err != nil {
				return err
			}
		}
	}
}

// runScripted renders pts on two ranks, the coordinator against script,
// under a 20 s watchdog (hung names what a hang means), and returns the
// complete Result once both ranks have exited cleanly.
func runScripted(t *testing.T, cfg Config, pts []geom.Vec3, hung string, script func(w *scriptedWorker) error) *Result {
	t.Helper()
	var res *Result
	done := make(chan []error, 1)
	go func() {
		done <- mpi.NewWorld(2).RunEach(func(c *mpi.Comm) (err error) {
			if c.Rank() == 0 {
				res, err = coordinate(context.Background(), c, cfg, pts)
				return err
			}
			w := &scriptedWorker{c: c}
			if _, err := c.Recv(0, tagSetup, &w.setup); err != nil {
				return err
			}
			if w.m, err = buildMarcher(w.setup.Particles); err != nil {
				return err
			}
			return script(w)
		})
	}()
	select {
	case errs := <-done:
		for r, e := range errs {
			if e != nil {
				t.Fatalf("rank %d: %v", r, e)
			}
		}
	case <-time.After(20 * time.Second):
		t.Fatal(hung)
	}
	if res.Incomplete {
		t.Fatalf("unexpected partial result: %v", res.Failures)
	}
	return res
}

// TestChaosStaleStragglerResultThenLoss pins the deadline-tracking rule: a
// late frame for a tile that was *stolen* from a rank must not clear the
// tracking of the tile the rank still holds. The scripted worker sits on
// its batch {A, B} until A's deadline expires and the coordinator steals A
// (and, this rank being the only live one, hands it straight back), then
// sends the stale A frame and drops B's result exactly as a lost gather
// send would. Only B's own deadline can recover it: if the stale arrival
// cleared the rank's tracking instead of the tile's, nothing would ever
// re-dispatch B and the coordinator would spin forever.
func TestChaosStaleStragglerResultThenLoss(t *testing.T) {
	pts := testCatalogs()["clustered"]
	spec := testSpec(pts)
	ref, _ := singleRank(t, pts, spec)

	cfg := Config{Spec: spec, Workers: 2, Tiles: 2, TileTimeout: 200 * time.Millisecond}
	res := runScripted(t, cfg, pts, "coordinator hung: stale frame for a stolen tile discarded the held tile's tracking",
		func(w *scriptedWorker) error {
			var first, second assignBatch
			if _, err := w.c.Recv(0, tagBatch, &first); err != nil {
				return err
			}
			if len(first.Tiles) != 2 {
				return fmt.Errorf("initial batch has %d tiles, want both", len(first.Tiles))
			}
			// Blocking here until the coordinator re-dispatches guarantees
			// tile A's deadline has expired and A has been stolen.
			if _, err := w.c.Recv(0, tagBatch, &second); err != nil {
				return err
			}
			a, err := w.march(first.Tiles[0])
			if err != nil {
				return err
			}
			if err := w.send(a); err != nil {
				return err
			}
			// B's result is never sent — only its deadline can recover it.
			return w.serveUntilShutdown()
		})
	assertGridsIdentical(t, ref, res.Grid)
	if res.Redispatched < 2 {
		t.Fatalf("expected >= 2 deadline re-dispatches, got %d", res.Redispatched)
	}
}

// TestChaosMalformedGridRedispatched feeds the root's ingestFrame a frame
// whose first grid is one column too narrow, one row too short, or one
// data word short for its tile, next to a healthy tile. The bad entry must be discarded (never
// stitched at some offset), acked like the good one (the same bytes again
// would be no better), and recovered by the deadline re-dispatch.
func TestChaosMalformedGridRedispatched(t *testing.T) {
	pts := testCatalogs()["dirty"]
	spec := testSpec(pts)
	ref, _ := singleRank(t, pts, spec)

	for name, trim := range map[string]func(g *grid.Grid2D) (*grid.Grid2D, error){
		"narrow": func(g *grid.Grid2D) (*grid.Grid2D, error) { return g.SubGrid(0, 0, g.Nx-1, g.Ny) },
		"short":  func(g *grid.Grid2D) (*grid.Grid2D, error) { return g.SubGrid(0, 0, g.Nx, g.Ny-1) },
		// The right Nx×Ny, one data word short: stitching it would index
		// past the end of Data.
		"short-data": func(g *grid.Grid2D) (*grid.Grid2D, error) {
			g.Data = g.Data[:len(g.Data)-1]
			return g, nil
		},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := Config{Spec: spec, Workers: 2, Tiles: 2, TileTimeout: 200 * time.Millisecond}
			res := runScripted(t, cfg, pts, "coordinator hung: the discarded tile was never re-dispatched",
				func(w *scriptedWorker) error {
					var b assignBatch
					if _, err := w.c.Recv(0, tagBatch, &b); err != nil {
						return err
					}
					if len(b.Tiles) != 2 {
						return fmt.Errorf("initial batch has %d tiles, want both", len(b.Tiles))
					}
					bad, err := w.march(b.Tiles[0])
					if err != nil {
						return err
					}
					if bad.Grid, err = trim(bad.Grid); err != nil {
						return err
					}
					good, err := w.march(b.Tiles[1])
					if err != nil {
						return err
					}
					if err := w.send(bad, good); err != nil {
						return err
					}
					var ack frameAck
					if _, err := w.c.Recv(0, tagAck, &ack); err != nil {
						return err
					}
					if len(ack.Tiles) != 2 || ack.Tiles[0] != bad.Tile || ack.Tiles[1] != good.Tile {
						return fmt.Errorf("ack names %v, want the discarded tile %d and the stitched tile %d", ack.Tiles, bad.Tile, good.Tile)
					}
					return w.serveUntilShutdown()
				})
			assertGridsIdentical(t, ref, res.Grid)
			if res.Redispatched != 1 || res.Duplicates != 0 {
				t.Fatalf("re-dispatched %d, duplicates %d; want exactly the discarded tile re-dispatched", res.Redispatched, res.Duplicates)
			}
			if len(res.Failures) != 1 || !strings.Contains(res.Failures[0], "discarded malformed") {
				t.Fatalf("Failures = %q, want the one discarded entry", res.Failures)
			}
		})
	}
}

func countStitched(res *Result) int {
	n := 0
	for _, r := range res.TileRank {
		if r >= 0 {
			n++
		}
	}
	return n
}

// TestMakeTiles pins the tiling invariants: full contiguous cover for both
// split styles and any rank count, and cost-balanced boundaries that react
// to particle clustering.
func TestMakeTiles(t *testing.T) {
	pts := testCatalogs()["clustered"]
	spec := testSpec(pts)
	for _, n := range []int{1, 2, 3, 5, 7, 16, 48, 100} {
		for _, even := range []bool{true, false} {
			tiles := MakeTiles(spec, pts, n, even)
			want := n
			if want > spec.Nx {
				want = spec.Nx
			}
			if len(tiles) != want {
				t.Fatalf("n=%d even=%v: got %d tiles", n, even, len(tiles))
			}
			at := 0
			for _, tl := range tiles {
				if tl.I0 != at || tl.I1 <= tl.I0 {
					t.Fatalf("n=%d even=%v: tile %+v breaks contiguous cover at %d", n, even, tl, at)
				}
				at = tl.I1
			}
			if at != spec.Nx {
				t.Fatalf("n=%d even=%v: cover ends at %d, want %d", n, even, at, spec.Nx)
			}
		}
	}
	// Cost balancing: on a strongly clustered catalog the uneven split
	// must not equal the even one.
	evenT := MakeTiles(spec, pts, 6, true)
	costT := MakeTiles(spec, pts, 6, false)
	same := true
	for i := range evenT {
		if evenT[i] != costT[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("cost-balanced tiling identical to even split on clustered catalog")
	}
}

// BenchmarkDistRender measures the end-to-end distributed render at 1, 4,
// and 8 simulated ranks (in-process world, so this tracks protocol and
// stitch overhead on top of the marching kernel).
func BenchmarkDistRender(b *testing.B) {
	box := geom.AABB{Min: geom.Vec3{}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	n := 4000
	gridN := 64
	if testing.Short() {
		n, gridN = 800, 24
	}
	pts := synth.HaloSet(n, box, synth.DefaultHaloSpec(), 11)
	spec := testSpec(pts)
	spec.Nx, spec.Ny = gridN, gridN
	for _, ranks := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			cfg := Config{Spec: spec, Workers: 2, Tiles: 2 * ranks}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err, _ := runDistributedBench(ranks, cfg, pts)
				if err != nil {
					b.Fatal(err)
				}
				if res.Incomplete {
					b.Fatal("incomplete render in benchmark")
				}
			}
		})
	}
}

func runDistributedBench(ranks int, cfg Config, pts []geom.Vec3) (*Result, error, []error) {
	w := mpi.NewWorld(ranks)
	var res *Result
	var resErr error
	errs := w.RunEach(func(c *mpi.Comm) error {
		r, err := RunCtx(context.Background(), c, cfg, pts)
		if c.Rank() == 0 {
			res, resErr = r, err
		}
		return err
	})
	return res, resErr, errs
}
