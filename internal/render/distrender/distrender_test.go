package distrender

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"godtfe/internal/delaunay"
	"godtfe/internal/dtfe"
	"godtfe/internal/fault"
	"godtfe/internal/geom"
	"godtfe/internal/geomerr"
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

// buildMarcher triangulates the catalog and prepares the SoA kernel over
// the whole mesh: rank 0's one build, marched whole.
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

// runDistributed executes one distributed render with the hooks h over a
// fresh in-process world, whose traffic h.fault also injects into, and
// returns rank 0's Result plus every rank's exit error.
func runDistributed(ranks int, cfg Config, pts []geom.Vec3, h hooks) (*Result, error, []error) {
	w := mpi.NewWorld(ranks)
	if h.fault != nil {
		w.SetInjector(h.fault)
	}
	var res *Result
	var resErr error
	errs := w.RunEach(func(c *mpi.Comm) error {
		r, err := run(context.Background(), c, cfg, pts, h)
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
							Spec: spec, Workers: workers,
							Tiles: 2*ranks + 1, // odd count: tiles never align with ranks
						}
						res, err, errs := runDistributed(ranks, cfg, pts, hooks{evenTiles: even})
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
		res, err, _ := runDistributed(5, Config{Spec: spec, Workers: 2, Gather: mode}, pts, hooks{})
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
	cfg := Config{Spec: spec, Workers: 2, Tiles: 9}
	res, err, errs := runDistributed(4, cfg, pts, hooks{fault: inj, tileTimeout: 300 * time.Millisecond})
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
	cfg := Config{Spec: spec, Workers: 2, Tiles: 6}
	res, err, errs := runDistributed(3, cfg, pts, hooks{fault: inj, tileTimeout: 40 * time.Millisecond})
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
	cfg := Config{Spec: spec, Workers: 2, Tiles: 8}
	h := hooks{fault: inj, tileTimeout: 100 * time.Millisecond}
	w := mpi.NewWorld(3)
	w.SetInjector(inj)
	var res *Result
	errs := w.RunEach(func(c *mpi.Comm) error {
		c.SetMaxSendRetries(2)
		r, err := run(context.Background(), c, cfg, pts, h)
		if c.Rank() == 0 {
			res = r
		}
		return err
	})
	if err := errs[0]; err != nil {
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
// forbidden from computing (noCoordinatorCompute), the Result must be a
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
	cfg := Config{Spec: spec, Workers: 2, Tiles: 8}
	res, err, errs := runDistributed(3, cfg, pts, hooks{fault: inj, tileTimeout: 200 * time.Millisecond, noCoordinatorCompute: true})
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

// TestChaosCoordinatorFinishesPartial: both workers stitch one tile each
// and crash on their second, and the coordinator may compute. It must
// stitch the two results already delivered, then march the remainder, a
// set of tiles with holes in it, from one slab of its own mesh, and the
// grid must equal the single-rank render.
func TestChaosCoordinatorFinishesPartial(t *testing.T) {
	pts := testCatalogs()["dirty"]
	spec := testSpec(pts)
	ref, refOutcomes := singleRank(t, pts, spec)

	inj := fault.New(fault.Plan{
		Seed: 4,
		Crashes: []fault.Crash{
			{Rank: 1, Point: fault.PointTile, After: 1},
			{Rank: 2, Point: fault.PointTile, After: 1},
		},
	})
	cfg := Config{Spec: spec, Workers: 2, Tiles: 8}
	res, err, errs := runDistributed(3, cfg, pts, hooks{fault: inj, tileTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for r, e := range errs[1:] {
		if !errors.Is(e, fault.ErrInjectedCrash) {
			t.Fatalf("rank %d should have crashed, got %v", r+1, e)
		}
	}
	assertGridsIdentical(t, ref, res.Grid)
	if !bytes.Equal(pgmBytes(t, ref), pgmBytes(t, res.Grid)) {
		t.Fatal("PGM bytes differ from single-rank reference")
	}
	if res.Outcomes != refOutcomes {
		t.Fatalf("outcome counts: reference %v, distributed %v", refOutcomes, res.Outcomes)
	}
	if !slices.Contains(res.TileRank, 0) || !slices.ContainsFunc(res.TileRank, func(r int) bool { return r > 0 }) {
		t.Fatalf("TileRank = %v, want tiles stitched from a worker and from rank 0", res.TileRank)
	}
}

// TestChaosCrashBeforeSend: rank 1 dies between a march and the send of
// its second result, taking a marched-but-unsent tile and the rest of its
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
	cfg := Config{Spec: spec, Workers: 2, Tiles: 15}
	res, err, errs := runDistributed(4, cfg, pts, hooks{fault: inj, tileTimeout: 300 * time.Millisecond})
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

// TestChaosMovedTileCarriesItsSlab: rank 1, which holds the first
// contiguous share, dies before marching anything. Its tiles move to the
// survivors as single-tile batches, each with the slab it crosses, so a
// survivor marches tiles outside the block its first slab was cut for,
// and the grid is still bit-equal to the single-rank render.
func TestChaosMovedTileCarriesItsSlab(t *testing.T) {
	pts := testCatalogs()["clustered"]
	spec := testSpec(pts)
	ref, refOutcomes := singleRank(t, pts, spec)

	inj := fault.New(fault.Plan{
		Seed:    21,
		Crashes: []fault.Crash{{Rank: 1, Point: fault.PointTile, After: 0}},
	})
	cfg := Config{Spec: spec, Workers: 2, Tiles: 9}
	res, err, errs := runDistributed(4, cfg, pts, hooks{fault: inj, tileTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(errs[1], fault.ErrInjectedCrash) {
		t.Fatalf("rank 1 should have crashed, got %v", errs[1])
	}
	first := shares(len(res.Tiles), 3)
	for _, k := range first[0] {
		r := res.TileRank[k]
		if r != 2 && r != 3 {
			t.Fatalf("tile %d of rank 1's share stitched from rank %d, want a survivor", k, r)
		}
		if slices.Contains(first[r-1], k) {
			t.Fatalf("tile %d is in rank %d's first block", k, r)
		}
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
		cfg := Config{Spec: spec, Workers: 2, Tiles: 8}
		res, err, errs := runDistributed(5, cfg, pts, hooks{fault: inj, tileTimeout: 300 * time.Millisecond})
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

// TestRejectedCatalogFailsOnce: a catalog delaunay.New refuses fails once,
// on rank 0, before any batch is sent; the workers, which never see one,
// leave cleanly instead of each failing the same build.
func TestRejectedCatalogFailsOnce(t *testing.T) {
	var pts []geom.Vec3
	for i := 0; i < 53; i++ {
		pts = append(pts, geom.Vec3{X: float64(i % 8), Y: float64(i / 8), Z: 0.5})
	}
	done := make(chan []error, 1)
	go func() {
		_, _, errs := runDistributed(4, Config{Spec: testSpec(pts)}, pts, hooks{})
		done <- errs
	}()
	select {
	case errs := <-done:
		if !errors.Is(errs[0], geomerr.ErrDegenerateInput) {
			t.Fatalf("rank 0: %v, want the degenerate-input error", errs[0])
		}
		for r, err := range errs[1:] {
			if err != nil {
				t.Fatalf("rank %d: %v, want a clean exit", r+1, err)
			}
		}
	case <-time.After(20 * time.Second):
		t.Fatal("world hung on a rejected catalog")
	}
}

// dropBatchTo is an mpi.Injector that drops every attempt of every batch
// send to one rank and nothing else.
type dropBatchTo int

func (r dropBatchTo) SendVerdict(src, dst, tag, attempt, bytes int) mpi.SendVerdict {
	return mpi.SendVerdict{Drop: dst == int(r) && tag == tagBatch}
}

// TestChaosBatchLost: a rank whose static batch is lost past the retry
// budget is written off for that lost send, not reported as exited; the
// others march its share, the render is complete and byte-identical to
// the single-rank one, and the lost rank exits cleanly once the
// coordinator is done.
func TestChaosBatchLost(t *testing.T) {
	pts := testCatalogs()["clustered"]
	spec := testSpec(pts)
	ref, refOutcomes := singleRank(t, pts, spec)

	w := mpi.NewWorld(4)
	w.SetInjector(dropBatchTo(2))
	cfg := Config{Spec: spec, Workers: 2, Tiles: 9}
	var res *Result
	errs := w.RunEach(func(c *mpi.Comm) (err error) {
		c.SetMaxSendRetries(1)
		r, err := RunCtx(context.Background(), c, cfg, pts)
		if c.Rank() == 0 {
			res = r
		}
		return err
	})
	for r, e := range errs {
		if e != nil {
			t.Fatalf("rank %d: %v", r, e)
		}
	}
	if res.Incomplete {
		t.Fatalf("a lost batch left a partial result: %v", res.Failures)
	}
	if len(res.Failures) != 1 || !strings.HasPrefix(res.Failures[0], "rank 2 lost: ") ||
		!strings.Contains(res.Failures[0], fmt.Sprintf("tag %d dropped", tagBatch)) ||
		!strings.Contains(res.Failures[0], mpi.ErrMessageLost.Error()) {
		t.Fatalf("Failures = %q, want rank 2 written off for its lost batch", res.Failures)
	}
	for k, r := range res.TileRank {
		if r == 2 {
			t.Fatalf("tile %d stitched from rank 2, which never had a batch", k)
		}
	}
	assertGridsIdentical(t, ref, res.Grid)
	if !bytes.Equal(pgmBytes(t, ref), pgmBytes(t, res.Grid)) {
		t.Fatal("PGM bytes differ from single-rank reference")
	}
	if res.Outcomes != refOutcomes {
		t.Fatalf("outcome counts: reference %v, distributed %v", refOutcomes, res.Outcomes)
	}
}

// TestSlabCorrupt: a batch slab that cannot be a piece of a mesh —
// ragged words, an out-of-range vertex, neighbour or facet index, a
// non-finite vertex, a density count that differs from the vertex count —
// is a geomerr.ErrMeshCorrupt, never a panic, and on a worker a tile
// error, not a rank failure; so is a tile span outside the batch's spec
// or outside its slab's span, which fails that tile alone. The intact
// slab marches its tiles as the whole mesh does.
func TestSlabCorrupt(t *testing.T) {
	ctx := context.Background()
	for name, corrupt := range map[string]func(s *render.Slab){
		"ragged":       func(s *render.Slab) { s.Tets = s.Tets[:len(s.Tets)-3] },
		"ragged-entry": func(s *render.Slab) { s.Entry = s.Entry[:len(s.Entry)-1] },
		"vertex":       func(s *render.Slab) { s.Tets[1] = int32(len(s.Pts)) },
		"neighbour":    func(s *render.Slab) { s.Tets[5] = int32(len(s.Tets) / 8) },
		"sentinel":     func(s *render.Slab) { s.Tets[6] = -3 },
		"facet":        func(s *render.Slab) { s.Entry[3] = int32(len(s.Tets) / 8) },
		"facet-vertex": func(s *render.Slab) { s.Entry[0] = -1 },
		"particle":     func(s *render.Slab) { s.Pts[3].Y = math.NaN() },
		"density":      func(s *render.Slab) { s.Density = s.Density[1:] },
		"span":         func(s *render.Slab) { s.X1 = math.Inf(1) },
		"extent":       func(s *render.Slab) { s.Pts[0].X, s.Pts[1].X = -1e308, 1e308 },
		"steps":        func(s *render.Slab) { s.MaxSteps = len(s.Tets)/8 - 1 },
	} {
		b := realBatch(t, 200)
		corrupt(b.Slab)
		if _, err := render.NewSlabMarcher(b.Slab); !errors.Is(err, geomerr.ErrMeshCorrupt) {
			t.Errorf("%s: %v, want a corrupt-mesh error", name, err)
		}
		// On a worker it fails the batch's tiles, not the rank.
		held := &batch{assignBatch: *b}
		if r, err := held.march(ctx, b.Tiles[0], 1); err != nil || !strings.Contains(r.Err, geomerr.ErrMeshCorrupt.Error()) {
			t.Errorf("%s: worker march: %v, tile error %q", name, err, r.Err)
		}
	}
	for name, c := range map[string]struct {
		span func(spec render.Spec) render.Tile
		want string
	}{
		"tile-outside-spec": {func(spec render.Spec) render.Tile { return render.Tile{I0: spec.Nx - 1, I1: spec.Nx + 1} }, "outside grid columns"},
		"tile-outside-slab": {func(render.Spec) render.Tile { return render.Tile{I0: 0, I1: 1} }, render.ErrOutsideSlab.Error()},
	} {
		b := realBatch(t, 200)
		b.Tiles[0].Span = c.span(b.Spec)
		held := &batch{assignBatch: *b}
		if r, err := held.march(ctx, b.Tiles[0], 1); err != nil || r.Tile != b.Tiles[0].K || !strings.Contains(r.Err, c.want) {
			t.Errorf("%s: worker march: %v, tile %d error %q", name, err, r.Tile, r.Err)
		}
		if r, err := held.march(ctx, b.Tiles[1], 1); err != nil || r.Err != "" || r.Grid == nil {
			t.Errorf("%s: the batch's next tile: %v, tile error %q", name, err, r.Err)
		}
	}
	b := realBatch(t, 200)
	want, err := buildMarcher(realCatalog(200))
	if err != nil {
		t.Fatal(err)
	}
	got, whole := &batch{assignBatch: *b}, &batch{assignBatch: *b, m: want}
	for _, k := range b.Tiles {
		g, err := got.march(ctx, k, 1)
		if err != nil || g.Err != "" {
			t.Fatalf("tile %d: %v %s", k.K, err, g.Err)
		}
		w, _ := whole.march(ctx, k, 1)
		if g.Grid.Checksum() != w.Grid.Checksum() {
			t.Fatalf("tile %d: the slab marches other bits than the whole mesh", k.K)
		}
	}
}

// scriptedWorker is rank 1 of a two-rank world whose rank 0 runs the real
// coordinator: the test's script receives the batches and decides which
// results it sends and when; nothing is ever re-sent unless the script
// sends it again. It marches a tile from its batch's slab, as a worker
// does.
type scriptedWorker struct {
	c *mpi.Comm
}

// recv takes the next batch.
func (w *scriptedWorker) recv() (*batch, error) {
	var a assignBatch
	if _, err := w.c.Recv(0, tagBatch, &a); err != nil {
		return nil, err
	}
	return &batch{assignBatch: a}, nil
}

// march marches tile i of b.
func (w *scriptedWorker) march(b *batch, i int) (tileResult, error) {
	return b.march(context.Background(), b.Tiles[i], w.c.Rank())
}

// send sends each result on its own, in order, as the real worker does.
func (w *scriptedWorker) send(tiles ...tileResult) error {
	for _, r := range tiles {
		if err := w.c.Send(0, tagResult, r); err != nil {
			return err
		}
	}
	return nil
}

// serveUntilShutdown marches and sends every tile of every further batch.
func (w *scriptedWorker) serveUntilShutdown() error {
	for {
		b, err := w.recv()
		if err != nil {
			if errors.Is(err, mpi.ErrRankFailed) {
				return nil
			}
			return err
		}
		if b.Shutdown {
			return nil
		}
		for i := range b.Tiles {
			r, err := w.march(b, i)
			if err != nil {
				return err
			}
			if err := w.send(r); err != nil {
				return err
			}
		}
	}
}

// runScripted renders pts on two ranks, the coordinator with the hooks h
// against script, under a 20 s watchdog (hung names what a hang means), and
// returns the complete Result once both ranks have exited cleanly.
func runScripted(t *testing.T, cfg Config, h hooks, pts []geom.Vec3, hung string, script func(w *scriptedWorker) error) *Result {
	t.Helper()
	var res *Result
	done := make(chan []error, 1)
	go func() {
		done <- mpi.NewWorld(2).RunEach(func(c *mpi.Comm) (err error) {
			if c.Rank() == 0 {
				res, err = run(context.Background(), c, cfg, pts, h)
				return err
			}
			return script(&scriptedWorker{c: c})
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
// late result for a tile that was *stolen* from a rank must not clear the
// tracking of the tile the rank still holds. The scripted worker sits on
// its batch {A, B} until A's deadline expires and the coordinator steals A
// (and, this rank being the only live one, hands it straight back), then
// sends the stale A result and drops B's result exactly as a lost gather
// send would. Only B's own deadline can recover it: if the stale arrival
// cleared the rank's tracking instead of the tile's, nothing would ever
// re-dispatch B and the coordinator would spin forever.
func TestChaosStaleStragglerResultThenLoss(t *testing.T) {
	pts := testCatalogs()["clustered"]
	spec := testSpec(pts)
	ref, _ := singleRank(t, pts, spec)

	cfg := Config{Spec: spec, Workers: 2, Tiles: 2}
	res := runScripted(t, cfg, hooks{tileTimeout: 200 * time.Millisecond}, pts, "coordinator hung: stale result for a stolen tile discarded the held tile's tracking",
		func(w *scriptedWorker) error {
			first, err := w.recv()
			if err != nil {
				return err
			}
			if len(first.Tiles) != 2 {
				return fmt.Errorf("initial batch has %d tiles, want both", len(first.Tiles))
			}
			// Blocking here until the coordinator re-dispatches guarantees
			// tile A's deadline has expired and A has been stolen.
			if _, err := w.recv(); err != nil {
				return err
			}
			a, err := w.march(first, 0)
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

// TestChaosMalformedGridRedispatched feeds the root's gather a result whose
// grid is one column too narrow, one row too short, or one data word short
// for its tile, followed by a healthy tile. The bad result must be
// discarded (never stitched at some offset) and recovered by the deadline
// re-dispatch.
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
			cfg := Config{Spec: spec, Workers: 2, Tiles: 2}
			res := runScripted(t, cfg, hooks{tileTimeout: 200 * time.Millisecond}, pts, "coordinator hung: the discarded tile was never re-dispatched",
				func(w *scriptedWorker) error {
					b, err := w.recv()
					if err != nil {
						return err
					}
					if len(b.Tiles) != 2 {
						return fmt.Errorf("initial batch has %d tiles, want both", len(b.Tiles))
					}
					bad, err := w.march(b, 0)
					if err != nil {
						return err
					}
					if bad.Grid, err = trim(bad.Grid); err != nil {
						return err
					}
					good, err := w.march(b, 1)
					if err != nil {
						return err
					}
					if err := w.send(bad, good); err != nil {
						return err
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

// TestChaosExpiredDeadlineKeepsStealing pins the gather's wait clamp: with
// a 1 ns straggler deadline every deadline has lapsed by the time the
// coordinator computes its next wait, so that wait is negative. Read as a
// timeout it would block the gather until some result arrived, and the
// scripted worker sends nothing until it has seen two re-dispatches.
func TestChaosExpiredDeadlineKeepsStealing(t *testing.T) {
	pts := testCatalogs()["dirty"]
	spec := testSpec(pts)
	ref, _ := singleRank(t, pts, spec)

	cfg := Config{Spec: spec, Workers: 2, Tiles: 2}
	res := runScripted(t, cfg, hooks{tileTimeout: time.Nanosecond}, pts, "coordinator hung: a lapsed deadline blocked the gather instead of stealing",
		func(w *scriptedWorker) error {
			first, err := w.recv()
			if err != nil {
				return err
			}
			if len(first.Tiles) != 2 {
				return fmt.Errorf("initial batch has %d tiles, want both", len(first.Tiles))
			}
			for i := 0; i < 2; i++ { // two re-dispatches
				if _, err := w.recv(); err != nil {
					return err
				}
			}
			for i := range first.Tiles {
				r, err := w.march(first, i)
				if err != nil {
					return err
				}
				if err := w.send(r); err != nil {
					return err
				}
			}
			for { // the stream of re-dispatches ends with the shutdown
				b, err := w.recv()
				if err != nil {
					return err
				}
				if b.Shutdown {
					return nil
				}
			}
		})
	assertGridsIdentical(t, ref, res.Grid)
	if res.Redispatched < 2 {
		t.Fatalf("expected >= 2 deadline re-dispatches, got %d", res.Redispatched)
	}
}

// dropFirstResult is an mpi.Injector that drops every attempt of rank 1's
// first result send and nothing else. Only rank 1 sends results, so one
// counter suffices.
type dropFirstResult struct{ sends atomic.Int32 }

func (d *dropFirstResult) SendVerdict(src, dst, tag, attempt, bytes int) mpi.SendVerdict {
	if src != 1 || tag != tagResult {
		return mpi.SendVerdict{}
	}
	n := d.sends.Load()
	if attempt == 0 {
		n = d.sends.Add(1)
	}
	return mpi.SendVerdict{Drop: n == 1}
}

// TestChaosLostTileToOnlyWorker: rank 1, the only worker, loses its first
// result past mpi's retries. The deadline steals the tile and, with no other
// live rank, hands it back to rank 1, which must march and send it again:
// a worker that remembered the tile as done would never send it, and the
// render would hang.
func TestChaosLostTileToOnlyWorker(t *testing.T) {
	pts := testCatalogs()["clustered"]
	spec := testSpec(pts)
	ref, refOutcomes := singleRank(t, pts, spec)

	w := mpi.NewWorld(2)
	w.SetInjector(new(dropFirstResult))
	cfg := Config{Spec: spec, Workers: 2, Tiles: 4}
	var res *Result
	done := make(chan []error, 1)
	go func() {
		done <- w.RunEach(func(c *mpi.Comm) error {
			r, err := run(context.Background(), c, cfg, pts, hooks{tileTimeout: 100 * time.Millisecond})
			if c.Rank() == 0 {
				res = r
			}
			return err
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
		t.Fatal("render hung: the lost tile was never sent again")
	}
	if res.Incomplete {
		t.Fatalf("a lost result left a partial render: %v", res.Failures)
	}
	t.Logf("re-dispatched %d, duplicates %d", res.Redispatched, res.Duplicates)
	assertGridsIdentical(t, ref, res.Grid)
	if res.Outcomes != refOutcomes {
		t.Fatalf("outcome counts: reference %v, distributed %v", refOutcomes, res.Outcomes)
	}
}

// TestGatherDecodeFailure: a message on the result tag that is no
// tileResult is recorded once as a gather decode failure and otherwise
// ignored; the worker's real results complete the render bit for bit.
func TestGatherDecodeFailure(t *testing.T) {
	pts := testCatalogs()["dirty"]
	spec := testSpec(pts)
	ref, _ := singleRank(t, pts, spec)

	cfg := Config{Spec: spec, Workers: 2, Tiles: 2}
	res := runScripted(t, cfg, hooks{}, pts, "coordinator hung after a result it could not decode",
		func(w *scriptedWorker) error {
			if err := w.c.Send(0, tagResult, assignBatch{Tiles: []batchTile{{}}}); err != nil {
				return err
			}
			return w.serveUntilShutdown()
		})
	assertGridsIdentical(t, ref, res.Grid)
	if len(res.Failures) != 1 || !strings.HasPrefix(res.Failures[0], "gather decode: ") {
		t.Fatalf("Failures = %q, want the one gather decode failure", res.Failures)
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
			tiles := makeTiles(spec, pts, n, even)
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
	evenT := makeTiles(spec, pts, 6, true)
	costT := makeTiles(spec, pts, 6, false)
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
				res, err, _ := runDistributed(ranks, cfg, pts, hooks{})
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

// distGridCase is the end-to-end dist_grid workload's shape: 20k
// clustered particles over a 256² grid whose cells span the catalog's x
// extent, on 4 ranks with the default 8 tiles, and its coordinator, which
// holds rank 0's one field of it. n shrinks the catalog.
func distGridCase(t testing.TB, n int) (co *coord, workers int) {
	t.Helper()
	pts := realCatalog(n)
	tri, err := delaunay.New(pts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := dtfe.NewField(tri, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := geom.BoundsOf(pts)
	spec := render.Spec{Min: b.Min.XY(), Nx: 256, Ny: 256, Cell: (b.Max.X - b.Min.X) / 256, ZMin: b.Min.Z, ZMax: b.Max.Z}
	const ranks = 4
	return newCoord(spec, makeTiles(spec, pts, 2*ranks, false), 1, f), ranks - 1
}

// staticBatches encodes the static batch of each of the workers, as
// coordinate sends them.
func staticBatches(t testing.TB, co *coord, workers int) [][]byte {
	t.Helper()
	var encs [][]byte
	for _, tiles := range shares(len(co.tiles), workers) {
		enc, err := mpi.Encode(nil, co.batch(tiles))
		if err != nil {
			t.Fatal(err)
		}
		encs = append(encs, enc)
	}
	return encs
}

// TestSlabBytes pins what the slabs save on the dist_grid workload's
// shape, counting bytes, not time: the three workers' static batches sum
// to at most 1.3 encodings of the whole mesh (each worker got one before
// slabs), and none exceeds 0.55 of one.
func TestSlabBytes(t *testing.T) {
	co, workers := distGridCase(t, 20000)
	whole := render.CutSlab(co.field, co.spec, render.Tile{I0: 0, I1: co.spec.Nx})
	if nf := co.field.Tri.NumFiniteTets(); len(whole.Tets)/8 != nf {
		t.Fatalf("the whole grid's slab carries %d of %d tets", len(whole.Tets)/8, nf)
	}
	full, err := mpi.Encode(nil, assignBatch{Slab: &whole})
	if err != nil {
		t.Fatal(err)
	}
	var sum int
	for w, enc := range staticBatches(t, co, workers) {
		frac := float64(len(enc)) / float64(len(full))
		t.Logf("worker %d: %d B, %.2f of the whole mesh's %d B", w+1, len(enc), frac, len(full))
		if frac > 0.55 {
			t.Errorf("worker %d's batch is %.2f of the whole mesh, want <= 0.55", w+1, frac)
		}
		sum += len(enc)
	}
	if frac := float64(sum) / float64(len(full)); frac > 1.3 {
		t.Errorf("the static batches sum to %.2f whole meshes, want <= 1.3", frac)
	}
}

// BenchmarkWorkerSetup is the layer number of one worker's setup on the
// dist_grid workload's shape (`make bench-dist`), per catalog point and
// with the bytes a worker is sent: build is delaunay.New, the field and
// the SoA kernel over the whole mesh (rank 0's one build, and every
// worker's before rank 0 shipped its mesh), fed the catalog; slab is what
// a worker runs now, decoding its static batch and building its Marcher
// from the slab, averaged over the three workers.
func BenchmarkWorkerSetup(b *testing.B) {
	n := 20000
	if testing.Short() {
		n = 2000
	}
	co, workers := distGridCase(b, n)
	pts := co.field.Tri.Points()
	b.Run("build", func(b *testing.B) {
		enc, err := mpi.Encode(nil, pts)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := buildMarcher(pts); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/point")
		b.ReportMetric(float64(len(enc)), "B/worker")
	})
	b.Run("slab", func(b *testing.B) {
		encs := staticBatches(b, co, workers)
		var bytes int
		for _, enc := range encs {
			bytes += len(enc)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, enc := range encs {
				var a assignBatch
				if err := mpi.Decode(enc, &a); err != nil {
					b.Fatal(err)
				}
				if _, err := render.NewSlabMarcher(a.Slab); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*workers*n), "ns/point")
		b.ReportMetric(float64(bytes)/float64(workers), "B/worker")
	})
}
