package distrender

import (
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"godtfe/internal/fault"
	"godtfe/internal/geom"
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

// --- tree wire format ------------------------------------------------------

// wireCodec is what every gather message implements through its pointer.
type wireCodec interface {
	AppendFast(buf []byte) []byte
	UnmarshalFast(data []byte) error
}

// wireCase is one gather message with a constructor of its zero value and
// its golden encoding in hex.
type wireCase struct {
	name   string
	msg    wireCodec
	zero   func() wireCodec
	golden string
}

// wireCases are one message of each wire type: a batch and the shutdown
// batch, a two-tile frame (one healthy tile with its grid and stats, one
// Err-only tile), and an ack.
func wireCases() []wireCase {
	g := grid.NewGrid2D(2, 1, geom.Vec2{X: 1, Y: -2}, 0.5)
	g.Data[0], g.Data[1] = 1.5, -0.25
	batch := func() wireCodec { return new(assignBatch) }
	return []wireCase{
		{"assignBatch", &assignBatch{Tiles: []int{1, 200}}, batch,
			"00" + "02" + "01" + "c801"},
		{"shutdown", &assignBatch{Shutdown: true}, batch,
			"01" + "00"},
		{"treeFrame", &treeFrame{Tiles: []tileResult{
			{Tile: 3, Rank: 4, Grid: g, Stats: []render.WorkerStat{{
				Worker: 1, Busy: time.Millisecond, Cells: 2, Steps: 300,
				Columns: render.OutcomeCounts{Clean: 2, Perturbed: 1},
			}}},
			{Tile: 5, Rank: 4, Err: "march failed"},
		}}, func() wireCodec { return new(treeFrame) },
			"02" + // two tiles
				"03" + "04" + "00" + // tile 3, rank 4, no error
				"01" + "2b" + // grid present, 43 bytes:
				"02" + "01" + "000000000000f03f" + "00000000000000c0" + "000000000000e03f" + // 2x1 at (1,-2), cell 0.5
				"02" + "000000000000f83f" + "000000000000d0bf" + // 2 words: 1.5, -0.25
				"01" + "01" + "c0843d" + "02" + "ac02" + "02" + "01" + "00" + "00" + // one stat
				"05" + "04" + "0c" + "6d61726368206661696c6564" + // tile 5, rank 4, "march failed"
				"00" + "00"}, // no grid, no stats
		{"frameAck", &frameAck{Tiles: []int{3, 4, 5}}, func() wireCodec { return new(frameAck) },
			"03" + "03" + "04" + "05"},
	}
}

// TestTreeWireRoundTrip pins the gather wire format byte for byte, checks
// that each message decodes back to itself, and that every strict prefix of
// each encoding is an error that leaves the receiver untouched — a
// truncated message is never half-accepted.
func TestTreeWireRoundTrip(t *testing.T) {
	for _, c := range wireCases() {
		t.Run(c.name, func(t *testing.T) {
			enc := c.msg.AppendFast(nil)
			if got := hex.EncodeToString(enc); got != c.golden {
				t.Fatalf("encoding\n got %s\nwant %s", got, c.golden)
			}
			got := c.zero()
			if err := got.UnmarshalFast(enc); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, c.msg) {
				t.Fatalf("round trip: sent %+v, got %+v", c.msg, got)
			}
			for n := range enc {
				got := c.zero()
				if err := got.UnmarshalFast(enc[:n]); err == nil {
					t.Fatalf("prefix of %d/%d bytes decoded without error: %+v", n, len(enc), got)
				}
				if !reflect.DeepEqual(got, c.zero()) {
					t.Fatalf("prefix of %d/%d bytes left a half-accepted message: %+v", n, len(enc), got)
				}
			}
		})
	}
}

// FuzzTreeWireDecode hammers every gather wire decoder with arbitrary bytes:
// decoders must reject garbage with an error, never panic or over-allocate
// on implausible counts.
func FuzzTreeWireDecode(f *testing.F) {
	for _, c := range wireCases() {
		f.Add(c.msg.AppendFast(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr treeFrame
		_ = fr.UnmarshalFast(data)
		var ab assignBatch
		_ = ab.UnmarshalFast(data)
		var ack frameAck
		_ = ack.UnmarshalFast(data)
	})
}
