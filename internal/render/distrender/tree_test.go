package distrender

import (
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"godtfe/internal/fault"
	"godtfe/internal/geom"
	"godtfe/internal/grid"
	"godtfe/internal/mpi"
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

// --- wire format ------------------------------------------------------------

// wireCase is one renderer message with a constructor of its zero value
// and its golden encoding in hex.
type wireCase struct {
	name   string
	msg    any
	zero   func() any
	golden string
}

// wireCases are one message of each wire type: the setup broadcast, a
// batch and the shutdown batch, a two-tile frame (one healthy tile with its
// grid and stats, one Err-only tile), and an ack.
func wireCases() []wireCase {
	g := grid.NewGrid2D(2, 1, geom.Vec2{X: 1, Y: -2}, 0.5)
	g.Data[0], g.Data[1] = 1.5, -0.25
	batch := func() any { return new(assignBatch) }
	return []wireCase{
		{"setupMsg", &setupMsg{
			Spec:  render.Spec{Min: geom.Vec2{X: 1, Y: -2}, Nx: 4, Ny: 1, Cell: 0.5, Samples: 2, Seed: 5},
			Tiles: []render.Tile{{I0: 0, I1: 2}, {I0: 2, I1: 4}}, Workers: 2, Fanout: 3,
			Particles: []geom.Vec3{{X: 1, Y: 2, Z: 3}},
		}, func() any { return new(setupMsg) },
			"13" + hex.EncodeToString([]byte("distrender.setupMsg")) +
				"000000000000f03f" + "00000000000000c0" + "08" + "02" + "000000000000e03f" + // Min, Nx 4, Ny 1, Cell 0.5
				"0000000000000000" + "0000000000000000" + "00" + "04" + "0a" + // ZMin, ZMax, Nz, Samples 2, Seed 5
				"02" + "00" + "04" + "04" + "08" + // two tiles: [0,2), [2,4)
				"04" + "06" + // Workers 2, Fanout 3
				"01" + "000000000000f03f" + "0000000000000040" + "0000000000000840"}, // one particle
		{"assignBatch", &assignBatch{Tiles: []int{1, 200}}, batch,
			"16" + hex.EncodeToString([]byte("distrender.assignBatch")) + "00" + "02" + "02" + "9003"},
		{"shutdown", &assignBatch{Shutdown: true}, batch,
			"16" + hex.EncodeToString([]byte("distrender.assignBatch")) + "01" + "00"},
		{"treeFrame", &treeFrame{Tiles: []tileResult{
			{Tile: 3, Rank: 4, Grid: g, Stats: []render.WorkerStat{{
				Worker: 1, Busy: time.Millisecond, Cells: 2, Steps: 300,
				Columns: render.OutcomeCounts{Clean: 2, Perturbed: 1},
			}}},
			{Tile: 5, Rank: 4, Err: "march failed"},
		}}, func() any { return new(treeFrame) },
			"14" + hex.EncodeToString([]byte("distrender.treeFrame")) +
				"02" + // two tiles
				"06" + "08" + "00" + // tile 3, rank 4, no error
				"01" + // grid present:
				"04" + "02" + "000000000000f03f" + "00000000000000c0" + "000000000000e03f" + // 2x1 at (1,-2), cell 0.5
				"02" + "000000000000f83f" + "000000000000d0bf" + // 2 words: 1.5, -0.25
				"01" + "02" + "80897a" + "04" + "d804" + "04" + "02" + "00" + "00" + // one stat
				"0a" + "08" + "0c" + hex.EncodeToString([]byte("march failed")) + // tile 5, rank 4
				"00" + "00"}, // no grid, no stats
		{"frameAck", &frameAck{Tiles: []int{3, 4, 5}}, func() any { return new(frameAck) },
			"13" + hex.EncodeToString([]byte("distrender.frameAck")) + "03" + "06" + "08" + "0a"},
	}
}

// TestTreeWireRoundTrip pins the renderer's messages on the mpi codec byte
// for byte, checks that each decodes back to itself, and that every strict
// prefix of each encoding is an error that leaves the receiver at zero — a
// truncated message is never half-accepted.
func TestTreeWireRoundTrip(t *testing.T) {
	for _, c := range wireCases() {
		t.Run(c.name, func(t *testing.T) {
			enc, err := mpi.Encode(nil, c.msg)
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(enc); got != c.golden {
				t.Fatalf("encoding\n got %s\nwant %s", got, c.golden)
			}
			got := c.zero()
			if err := mpi.Decode(enc, got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, c.msg) {
				t.Fatalf("round trip: sent %+v, got %+v", c.msg, got)
			}
			for n := range enc {
				got := c.zero()
				if err := mpi.Decode(enc[:n], got); err == nil {
					t.Fatalf("prefix of %d/%d bytes decoded without error: %+v", n, len(enc), got)
				}
				if !reflect.DeepEqual(got, c.zero()) {
					t.Fatalf("prefix of %d/%d bytes left a half-accepted message: %+v", n, len(enc), got)
				}
			}
		})
	}
}

// FuzzTreeWireDecode hammers the mpi codec with arbitrary bytes decoded into
// every renderer message type: garbage must be rejected with an error,
// never panic or over-allocate on implausible counts.
func FuzzTreeWireDecode(f *testing.F) {
	for _, c := range wireCases() {
		enc, err := mpi.Encode(nil, c.msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	header := "\x14distrender.treeFrame"
	f.Add(append([]byte(header), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range wireCases() {
			_ = mpi.Decode(data, c.zero())
		}
	})
}

// TestWireMessagesOverWorld sends one value of each renderer message type
// through a real Send/Recv and checks the receiver holds exactly that value.
func TestWireMessagesOverWorld(t *testing.T) {
	for _, c := range wireCases() {
		t.Run(c.name, func(t *testing.T) {
			errs := mpi.NewWorld(2).RunEach(func(comm *mpi.Comm) error {
				if comm.Rank() == 0 {
					return comm.Send(1, tagSetup, c.msg)
				}
				got := c.zero()
				if _, err := comm.Recv(0, tagSetup, got); err != nil {
					return err
				}
				if !reflect.DeepEqual(got, c.msg) {
					return fmt.Errorf("sent %+v, received %+v", c.msg, got)
				}
				return nil
			})
			for r, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", r, err)
				}
			}
		})
	}
}
