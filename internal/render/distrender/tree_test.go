package distrender

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"godtfe/internal/delaunay"
	"godtfe/internal/fault"
	"godtfe/internal/geom"
	"godtfe/internal/geomerr"
	"godtfe/internal/grid"
	"godtfe/internal/render"
)

// TestTreeParent pins the k-ary topology arithmetic.
func TestTreeParent(t *testing.T) {
	cases := []struct{ r, fanout, want int }{
		{0, 2, 0}, {1, 2, 0}, {2, 2, 0}, {3, 2, 1}, {4, 2, 1}, {5, 2, 2}, {6, 2, 2},
		{1, 4, 0}, {4, 4, 0}, {5, 4, 1}, {8, 4, 1}, {9, 4, 2},
	}
	for _, c := range cases {
		if got := treeParent(c.r, c.fanout); got != c.want {
			t.Errorf("treeParent(%d, %d) = %d, want %d", c.r, c.fanout, got, c.want)
		}
	}
}

// treeChaosCfg is the shared config for the tree chaos suite.
func treeChaosCfg(spec render.Spec, fanout int) Config {
	return Config{
		Spec: spec, Workers: 2, Fanout: fanout,
		Tiles: 15, TileTimeout: 300 * time.Millisecond,
	}
}

// TestTreeChaosInteriorDeathMidMerge is the headline failure mode: an
// interior rank (rank 1 at fanout 2 parents ranks 3 and 4) dies between
// relays, taking with it child tiles it had already acked. Its children
// must re-parent to the root and the root's deadline re-dispatch must
// recover the acked-but-unforwarded tiles — acks are hop-local, not
// end-to-end receipts.
func TestTreeChaosInteriorDeathMidMerge(t *testing.T) {
	pts := testCatalogs()["clustered"]
	spec := testSpec(pts)
	ref, refOutcomes := singleRank(t, pts, spec)

	inj := fault.New(fault.Plan{
		Seed:    11,
		Crashes: []fault.Crash{{Rank: 1, Point: fault.PointRelay, After: 1}},
	})
	res, err, errs := runDistributed(7, treeChaosCfg(spec, 2), pts, inj)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(errs[1], fault.ErrInjectedCrash) {
		t.Fatalf("rank 1 should have crashed mid-merge, got %v", errs[1])
	}
	for _, r := range []int{2, 3, 4, 5, 6} {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
	}
	if res.Incomplete {
		t.Fatalf("interior death left a partial result: %v", res.Failures)
	}
	assertGridsIdentical(t, ref, res.Grid)
	if res.Outcomes != refOutcomes {
		t.Fatalf("outcome counts after recovery: want %v, got %v", refOutcomes, res.Outcomes)
	}
}

// TestTreeChaosCascadingFailures kills two generations of interior ranks
// plus a leaf mid-march: rank 3 re-parents from dead rank 1 to the root
// and then dies itself, orphaning ranks 7 and 8 in turn.
func TestTreeChaosCascadingFailures(t *testing.T) {
	pts := testCatalogs()["dirty"]
	spec := testSpec(pts)
	ref, _ := singleRank(t, pts, spec)

	inj := fault.New(fault.Plan{
		Seed: 12,
		Crashes: []fault.Crash{
			{Rank: 1, Point: fault.PointRelay, After: 0},
			{Rank: 3, Point: fault.PointRelay, After: 1},
			{Rank: 2, Point: fault.PointTile, After: 1},
		},
	})
	res, err, errs := runDistributed(9, treeChaosCfg(spec, 2), pts, inj)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{1, 2, 3} {
		if !errors.Is(errs[r], fault.ErrInjectedCrash) {
			t.Fatalf("rank %d should have crashed, got %v", r, errs[r])
		}
	}
	for _, r := range []int{4, 5, 6, 7, 8} {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
	}
	if res.Incomplete {
		t.Fatalf("cascading failures left a partial result: %v", res.Failures)
	}
	assertGridsIdentical(t, ref, res.Grid)
	if len(res.Failures) < 3 {
		t.Fatalf("expected the three lost ranks attributed in Failures, got %v", res.Failures)
	}
}

// TestTreeChaosDroppedFrames: frames and acks dropped past the send retry
// budget force the per-tile retry timer and, for truly lost tiles, the
// root's deadline re-dispatch. The grid must still come out bit-exact.
func TestTreeChaosDroppedFrames(t *testing.T) {
	pts := testCatalogs()["lattice"]
	spec := testSpec(pts)
	ref, _ := singleRank(t, pts, spec)

	inj := fault.New(fault.Plan{
		Seed:      13,
		DropProb:  0.4,
		DropCount: 5, // beyond the retry budget: some sends are truly lost
	})
	cfg := treeChaosCfg(spec, 2)
	cfg.TileTimeout = 150 * time.Millisecond
	cfg.MaxSendRetries = 2
	res, err, errs := runDistributed(5, cfg, pts, inj)
	if err != nil {
		t.Fatal(err)
	}
	for r, e := range errs {
		if e != nil {
			t.Fatalf("rank %d: %v", r, e)
		}
	}
	if res.Incomplete {
		t.Fatalf("dropped frames left a partial result: %v", res.Failures)
	}
	assertGridsIdentical(t, ref, res.Grid)
}

// TestTreeChaosStragglerDuplicates: a 200x straggler's tiles blow their
// deadline and are re-dispatched; its late frames then arrive as
// duplicates and every merge level must resolve them first-wins without
// disturbing the stitched bytes.
func TestTreeChaosStragglerDuplicates(t *testing.T) {
	pts := testCatalogs()["clustered"]
	spec := testSpec(pts)
	ref, _ := singleRank(t, pts, spec)

	inj := fault.New(fault.Plan{
		Seed:             14,
		Stragglers:       []fault.Straggler{{Rank: 3, Factor: 200}},
		MaxStraggleSleep: 150 * time.Millisecond,
	})
	cfg := treeChaosCfg(spec, 2)
	cfg.TileTimeout = 40 * time.Millisecond
	res, err, errs := runDistributed(5, cfg, pts, inj)
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
	if res.Redispatched == 0 {
		t.Fatal("expected at least one deadline re-dispatch")
	}
	assertGridsIdentical(t, ref, res.Grid)
}

// TestTreeChaosAllWorkersLost: every worker dies and the coordinator is
// forbidden from computing — the tree gather must still produce a
// correctly flagged partial with the lost tiles enumerated.
func TestTreeChaosAllWorkersLost(t *testing.T) {
	pts := testCatalogs()["dirty"]
	spec := testSpec(pts)

	inj := fault.New(fault.Plan{
		Seed: 15,
		Crashes: []fault.Crash{
			{Rank: 1, Point: fault.PointTile, After: 1},
			{Rank: 2, Point: fault.PointTile, After: 1},
			{Rank: 3, Point: fault.PointTile, After: 1},
		},
	})
	cfg := treeChaosCfg(spec, 2)
	cfg.Tiles = 8
	cfg.TileTimeout = 200 * time.Millisecond
	cfg.NoCoordinatorCompute = true
	res, err, errs := runDistributed(4, cfg, pts, inj)
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

// TestTreeSubsetHalo runs subset mode through the tree: guard grids ride
// the frame format and the stitch-time cross-check keeps working — a
// sufficient halo stitches clean, a too-small one is detected as a typed
// halo mismatch, never silently stitched. noCertify pins the guard path on
// for the sufficient case.
func TestTreeSubsetHalo(t *testing.T) {
	pts := testCatalogs()["clustered"]
	spec := testSpec(pts)
	ref, _ := singleRank(t, pts, spec)
	diam := maxProjectedTetDiameter(t, pts)

	t.Run("sufficient", func(t *testing.T) {
		cfg := Config{
			Spec: spec, Workers: 2, Fanout: 2,
			Tiles: 4, EvenTiles: true, Halo: 2 * diam, Guard: 2, noCertify: true,
		}
		res, err, errs := runDistributed(5, cfg, pts, nil)
		if err != nil {
			t.Fatalf("sufficient halo rejected: %v", err)
		}
		for r, e := range errs {
			if e != nil {
				t.Fatalf("rank %d: %v", r, e)
			}
		}
		if res.Incomplete {
			t.Fatalf("sufficient halo flagged incomplete: %v", res.Failures)
		}
		for _, tile := range res.Tiles {
			for _, i := range []int{tile.I0, tile.I1 - 1} {
				for j := 0; j < spec.Ny; j++ {
					a, b := ref.At(i, j), res.Grid.At(i, j)
					if math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("boundary column %d row %d: reference %v, tree subset %v", i, j, a, b)
					}
				}
			}
		}
	})
	t.Run("too-small-detected", func(t *testing.T) {
		cfg := Config{
			Spec: spec, Workers: 2, Fanout: 2,
			Tiles: 4, EvenTiles: true, Halo: spec.Cell / 4, Guard: 2,
		}
		res, err, _ := runDistributed(5, cfg, pts, nil)
		if err == nil {
			t.Fatal("too-small halo was not detected through the tree")
		}
		if !errors.Is(err, geomerr.ErrHaloMismatch) {
			t.Fatalf("want geomerr.ErrHaloMismatch, got %v", err)
		}
		if res == nil || !res.Incomplete {
			t.Fatal("halo mismatch must flag the result incomplete")
		}
		if res.CertifiedTiles != 0 {
			t.Fatalf("a halo below the bound must never certify, got %d certified tiles", res.CertifiedTiles)
		}
	})
}

// TestFailedRankAttributionInResult: when a rank dies, the gather must name
// it in Result.Failures with the underlying cause, star or tree —
// operators debugging a 1k-rank run need the rank id, not just "a rank
// died somewhere".
func TestFailedRankAttributionInResult(t *testing.T) {
	pts := testCatalogs()["clustered"]
	spec := testSpec(pts)
	for _, tc := range []struct {
		name          string
		ranks, fanout int
	}{
		{"star", 3, 3},
		{"tree", 5, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Crash rank 2 on its very first tile (After: 0): every live
			// worker's static batch holds at least one tile, so the crash
			// fires on any schedule.
			inj := fault.New(fault.Plan{
				Seed:    16,
				Crashes: []fault.Crash{{Rank: 2, Point: fault.PointTile, After: 0}},
			})
			cfg := Config{
				Spec: spec, Workers: 2, Fanout: tc.fanout,
				Tiles: 8, TileTimeout: 300 * time.Millisecond,
			}
			res, err, errs := runDistributed(tc.ranks, cfg, pts, inj)
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
}

// --- certified halo --------------------------------------------------------

// TestCertifiedHalo: a halo at or above CertifiedHaloBound certifies every
// tile — guard renders are skipped, no guard grids travel, and the render
// is still byte-identical to the single-rank reference. noCertify turns
// the optimization off without changing the bytes.
func TestCertifiedHalo(t *testing.T) {
	pts := testCatalogs()["clustered"]
	spec := testSpec(pts)
	ref, _ := singleRank(t, pts, spec)

	tri, err := delaunay.New(pts)
	if err != nil {
		t.Fatal(err)
	}
	bound, ok := CertifiedHaloBound(tri)
	if !ok || bound <= 0 {
		t.Fatalf("clustered catalog must yield a certificate bound, got %v ok=%v", bound, ok)
	}

	run := func(ranks, fanout int, noCertify bool) *Result {
		t.Helper()
		cfg := Config{
			Spec: spec, Workers: 2, Fanout: fanout,
			Tiles: 4, EvenTiles: true, Halo: bound, Guard: 2, noCertify: noCertify,
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
		return res
	}

	for _, tc := range []struct {
		name          string
		ranks, fanout int
	}{
		{"star", 3, 3},
		{"tree", 5, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := run(tc.ranks, tc.fanout, false)
			if res.CertifiedHalo <= 0 {
				t.Fatal("Result.CertifiedHalo not reported")
			}
			if res.CertifiedTiles != len(res.Tiles) {
				t.Fatalf("certified %d of %d tiles, want all", res.CertifiedTiles, len(res.Tiles))
			}
		})
	}
	t.Run("no-certify", func(t *testing.T) {
		res := run(3, 3, true)
		if res.CertifiedTiles != 0 || res.CertifiedHalo != 0 {
			t.Fatalf("noCertify must disable certification, got tiles=%d bound=%v",
				res.CertifiedTiles, res.CertifiedHalo)
		}
	})
}

// TestCertifiedHaloBoundLattice pins the bound as a geometry-derived
// quantity: on the exact 6x6x6 unit lattice every tet inscribes in a
// 0.2-cube cell, whose circumradius is half the space diagonal, so the
// bound is 4 * sqrt(3) * 0.1 (the perturbed predicates resolve the
// cosphericity deterministically rather than failing the solve).
func TestCertifiedHaloBoundLattice(t *testing.T) {
	pts := testCatalogs()["lattice"]
	tri, err := delaunay.New(pts)
	if err != nil {
		t.Fatal(err)
	}
	bound, ok := CertifiedHaloBound(tri)
	if !ok {
		t.Fatal("lattice bound not computable")
	}
	want := 4 * math.Sqrt(3) * 0.1
	if math.Abs(bound-want) > 1e-6 {
		t.Fatalf("lattice bound %v, want ~%v", bound, want)
	}
}

// --- tree wire format ------------------------------------------------------

// TestTreeWireRoundTrip pins the frame wire format: batches, frames with
// merged spans and per-tile guard grids, and acks.
func TestTreeWireRoundTrip(t *testing.T) {
	b := assignBatch{Tiles: []tileMsg{
		{Tile: 1, I0: 0, I1: 8},
		{Subset: true, Certified: true, Tile: 2, I0: 8, I1: 16, GL: 1,
			Particles: []geom.Vec3{{X: 1, Y: 2, Z: 3}}},
	}}
	var gotB assignBatch
	if err := gotB.UnmarshalFast(b.AppendFast(nil)); err != nil {
		t.Fatal(err)
	}
	if len(gotB.Tiles) != 2 || gotB.Shutdown {
		t.Fatalf("assignBatch round trip: %+v", gotB)
	}
	if gotB.Tiles[1].Tile != 2 || !gotB.Tiles[1].Subset || !gotB.Tiles[1].Certified ||
		len(gotB.Tiles[1].Particles) != 1 {
		t.Fatalf("assignBatch tile 1 round trip: %+v", gotB.Tiles[1])
	}
	var gotShut assignBatch
	if err := gotShut.UnmarshalFast((assignBatch{Shutdown: true}).AppendFast(nil)); err != nil {
		t.Fatal(err)
	}
	if !gotShut.Shutdown {
		t.Fatal("shutdown flag lost")
	}

	span := grid.NewGrid2D(6, 3, geom.Vec2{X: 1}, 0.5)
	for i := range span.Data {
		span.Data[i] = float64(i) * 0.75
	}
	f := treeFrame{
		Tiles: []tileFrame{
			{Tile: 3, Rank: 4, I0: 10, I1: 13, Certified: true,
				GuardR: grid.NewGrid2D(1, 3, geom.Vec2{}, 0.5),
				Stats:  []render.WorkerStat{{Worker: 0, Cells: 9, Busy: time.Millisecond}}},
			{Tile: 4, Rank: 5, I0: 13, I1: 16},
			{Tile: 5, Rank: 4, Err: "subset degenerate"},
		},
		Spans: []gridSpan{{I0: 10, Grid: span}},
	}
	var gotF treeFrame
	if err := gotF.UnmarshalFast(f.AppendFast(nil)); err != nil {
		t.Fatal(err)
	}
	if len(gotF.Tiles) != 3 || len(gotF.Spans) != 1 {
		t.Fatalf("treeFrame round trip: %d tiles, %d spans", len(gotF.Tiles), len(gotF.Spans))
	}
	tf := gotF.Tiles[0]
	if tf.Tile != 3 || tf.Rank != 4 || tf.I0 != 10 || tf.I1 != 13 || !tf.Certified ||
		tf.GuardR == nil || tf.GuardL != nil || len(tf.Stats) != 1 || tf.Stats[0].Cells != 9 {
		t.Fatalf("tileFrame round trip: %+v", tf)
	}
	if gotF.Tiles[2].Err != "subset degenerate" {
		t.Fatalf("failed-tile error lost: %+v", gotF.Tiles[2])
	}
	gs := gotF.Spans[0]
	if gs.I0 != 10 || gs.Grid == nil || gs.Grid.Nx != 6 || gs.Grid.Ny != 3 {
		t.Fatalf("gridSpan round trip: %+v", gs)
	}
	for i := range span.Data {
		if math.Float64bits(gs.Grid.Data[i]) != math.Float64bits(span.Data[i]) {
			t.Fatalf("span word %d differs", i)
		}
	}

	a := frameAck{Tiles: []int{3, 4, 5}}
	var gotA frameAck
	if err := gotA.UnmarshalFast(a.AppendFast(nil)); err != nil {
		t.Fatal(err)
	}
	if len(gotA.Tiles) != 3 || gotA.Tiles[2] != 5 {
		t.Fatalf("frameAck round trip: %+v", gotA)
	}
}

// FuzzTreeWireDecode hammers every gather wire decoder with arbitrary bytes:
// decoders must reject garbage with an error, never panic or over-allocate
// on implausible counts.
func FuzzTreeWireDecode(f *testing.F) {
	span := grid.NewGrid2D(2, 2, geom.Vec2{}, 1)
	frame := treeFrame{
		Tiles: []tileFrame{{Tile: 1, Rank: 2, I0: 0, I1: 2}},
		Spans: []gridSpan{{I0: 0, Grid: span}},
	}
	f.Add(frame.AppendFast(nil))
	f.Add((assignBatch{Tiles: []tileMsg{{Tile: 0, I0: 0, I1: 4}}}).AppendFast(nil))
	f.Add((frameAck{Tiles: []int{0, 1}}).AppendFast(nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr treeFrame
		_ = fr.UnmarshalFast(data)
		var ab assignBatch
		_ = ab.UnmarshalFast(data)
		var ack frameAck
		_ = ack.UnmarshalFast(data)
		var tm tileMsg
		_ = tm.UnmarshalFast(data)
	})
}
