package vtime

import (
	"math"
	"testing"
)

func treeCfg(ranks, tiles, fanout int, tileCost float64) DistRenderConfig {
	costs := make([]float64, tiles)
	for i := range costs {
		costs[i] = tileCost
	}
	return DistRenderConfig{
		Ranks: ranks, Fanout: fanout,
		Comm:      CommModel{Latency: 1e-5, BytesPerSec: 1e9, SendOverhead: 1e-4},
		TileCosts: costs, AssignBytes: 64, ResultBytes: 1 << 16,
		SetupCost: 0.05,
		// The stitch is a memory copy, not a protocol round-trip: two
		// orders cheaper than SendOverhead, which the root pays per frame
		// — per tile in a star, per coalesced frame with interior ranks.
		StitchPerTile: 1e-6,
	}
}

// TestTreeDistRenderSmallWorld: worlds too small for an interior rank run
// the same model — every worker is a leaf under the root at any fanout >= 2,
// so the fanout cannot matter.
func TestTreeDistRenderSmallWorld(t *testing.T) {
	for _, ranks := range []int{2, 3} {
		star := SimulateDistRender(treeCfg(ranks, 16, ranks, 1e-2))
		tree := SimulateDistRender(treeCfg(ranks, 16, 2, 1e-2))
		if tree != star {
			t.Fatalf("%d-rank fanout-2 %+v diverges from the star %+v", ranks, tree, star)
		}
		if star.Depth != 1 || star.RootFrames != 16 || star.Makespan <= 0 {
			t.Fatalf("%d-rank star: %+v", ranks, star)
		}
	}
}

// TestTreeDistRenderDepth pins the k-ary depth: with parent (r-1)/fanout
// the deepest hop count is ceil(log_fanout((fanout-1)*(R-1)/fanout + 1)).
func TestTreeDistRenderDepth(t *testing.T) {
	cases := []struct{ ranks, fanout, depth int }{
		{2, 1, 1},
		{5, 1, 4},
		{5, 4, 1},
		{6, 4, 2},
		{64, 64, 1},
		{8, 2, 3},
		{21, 4, 2},
		{22, 4, 3},
		{16384, 4, 7},
	}
	for _, tc := range cases {
		out := SimulateDistRender(treeCfg(tc.ranks, 64, tc.fanout, 1e-3))
		if out.Depth != tc.depth {
			t.Errorf("ranks=%d fanout=%d depth %d, want %d", tc.ranks, tc.fanout, out.Depth, tc.depth)
		}
	}
}

// TestTreeDistRenderConservation: every tile is stitched exactly once and
// WorkBusy reflects the whole marched load.
func TestTreeDistRenderConservation(t *testing.T) {
	cfg := treeCfg(37, 200, 3, 2e-3)
	out := SimulateDistRender(cfg)
	if out.Makespan <= 0 {
		t.Fatalf("makespan %v (negative means lost tiles)", out.Makespan)
	}
	if out.Tiles != 200 {
		t.Fatalf("tiles %d, want 200", out.Tiles)
	}
	if want := 200 * 2e-3; math.Abs(out.WorkBusy-want) > 1e-9 {
		t.Fatalf("work busy %v, want %v", out.WorkBusy, want)
	}
	if out.RootFrames < 1 || out.RootFrames > 200 {
		t.Fatalf("root frames %d out of range", out.RootFrames)
	}
}

// TestTreeRemovesGatherFloor: on a protocol-bound workload the star
// (fanout = ranks) saturates at tiles x SendOverhead serialized on the
// coordinator; with interior ranks (fanout 4, same simulator) tiles coalesce
// into frames on the way up, so the coordinator's protocol cost scales with
// its frame count, far below the tile count.
func TestTreeRemovesGatherFloor(t *testing.T) {
	const ranks, tiles = 1024, 4096
	cfg := treeCfg(ranks, tiles, 4, 1e-3)
	star := SimulateDistRender(treeCfg(ranks, tiles, ranks, 1e-3))
	tree := SimulateDistRender(cfg)

	floor := float64(tiles) * cfg.Comm.SendOverhead
	if star.Makespan < floor {
		t.Fatalf("star makespan %v below its own serialization floor %v", star.Makespan, floor)
	}
	if star.RootFrames != tiles {
		t.Fatalf("star root ingested %d frames, want one per tile (%d)", star.RootFrames, tiles)
	}
	if tree.Makespan >= floor/2 {
		t.Fatalf("tree makespan %v did not break the star floor %v", tree.Makespan, floor)
	}
	if tree.Makespan >= star.Makespan/3 {
		t.Fatalf("tree makespan %v vs star %v: expected >3x win", tree.Makespan, star.Makespan)
	}
	if tree.RootFrames > tiles/10 {
		t.Fatalf("root ingested %d frames for %d tiles — coalescing is not happening", tree.RootFrames, tiles)
	}
	// The coordinator's protocol busy-time must be frame-bound, not
	// tile-bound: scatter (one batch per rank) + per-frame ingest.
	protocol := tree.CoordBusy - float64(tiles)*cfg.StitchPerTile
	budget := float64(ranks+10*tree.RootFrames) * cfg.Comm.SendOverhead
	if protocol > budget {
		t.Fatalf("coordinator protocol time %v exceeds frame-bound budget %v", protocol, budget)
	}
}
