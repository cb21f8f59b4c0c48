package experiments

import (
	"time"

	"godtfe/internal/delaunay"
	"godtfe/internal/dtfe"
	"godtfe/internal/geom"
	"godtfe/internal/render"
	"godtfe/internal/render/distrender"
	"godtfe/internal/synth"
	"godtfe/internal/vtime"
)

// distRenderRanks is the strong-scaling sweep; the top counts match the
// paper's Section V cluster sizes (Fig 13).
var distRenderRanks = []int{1, 16, 64, 256, 1024, 4096, 16384}

// DistRender evaluates the distributed single-grid render's strong
// scaling: a real (small) render of a clustered catalog calibrates the
// per-column marching cost and the triangulation setup cost, a
// cost-balanced tiling of a large virtual grid is cut with the production
// tiler (distrender.MakeTiles), and the virtual-time simulator plays the
// one gather protocol at up to 16k ranks at two fanouts: fanout = ranks
// (a star, every rank a leaf under rank 0) and the default k-ary tree. The
// star curve saturates where the coordinator's serial per-frame protocol
// cost — one frame per tile, nothing coalesces — overtakes the shrinking
// per-rank marching share; with interior ranks tiles coalesce into frames
// on the way up, so the coordinator's frame count is fanout-bounded
// (log-depth) and the floor moves down to the output grid's
// memory-bandwidth copy.
func DistRender(opt Options) (*Report, error) {
	opt = opt.fill()
	start := time.Now()
	r := &Report{ID: "distrender", Title: "distributed render fan-out: strong scaling to 16k ranks"}

	// Calibrate on a real render.
	box := geom.AABB{Min: geom.Vec3{}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	n := opt.scaled(20000)
	pts := synth.HaloSet(n, box, synth.DefaultHaloSpec(), opt.Seed+41)

	buildStart := time.Now()
	tri, err := delaunay.New(pts)
	if err != nil {
		return nil, err
	}
	f, err := dtfe.NewField(tri, nil)
	if err != nil {
		return nil, err
	}
	m := render.NewMarcher(f)
	setupCost := time.Since(buildStart).Seconds()

	const calN = 96
	spec := render.Spec{
		Min: geom.Vec2{X: -0.02, Y: -0.02},
		Nx:  calN, Ny: calN, Cell: 1.04 / calN,
		Samples: 2, Seed: opt.Seed,
	}
	renderStart := time.Now()
	if _, _, err := m.Render(spec, 1, render.ScheduleDynamic); err != nil {
		return nil, err
	}
	perColumn := time.Since(renderStart).Seconds() / float64(calN*calN)

	// The virtual workload: one large grid over the same catalog
	// statistics. Tile costs come from the production tiler's
	// cost-balanced boundaries and the calibrated per-column cost,
	// weighted by each tile's particle share (clustered tiles march more
	// tetrahedra per column).
	bigN := opt.scaled(8192)
	if bigN < 64 {
		bigN = 64
	}
	bigSpec := spec
	bigSpec.Nx, bigSpec.Ny = bigN, bigN
	bigSpec.Cell = 1.04 / float64(bigN)

	r.Rowf("%-7s %7s %11s %8s %11s %8s %6s %7s %10s %10s", "ranks", "tiles",
		"star-mksp", "speedup", "tree-mksp", "speedup", "depth", "frames",
		"star-oh", "tree-oh")
	var base, worstTail float64
	var worstRanks int
	for _, ranks := range distRenderRanks {
		nt := 4 * ranks
		if nt > bigN {
			nt = bigN
		}
		tiles := distrender.MakeTiles(bigSpec, pts, nt, false)
		costs := make([]float64, len(tiles))
		for i, t := range tiles {
			costs[i] = perColumn * float64(t.Width()*bigN)
		}
		resultBytes := int64(bigN) * int64(bigN/len(tiles)+1) * 8
		copyCost := float64(resultBytes) / float64(commModel().BytesPerSec)
		cfg := vtime.DistRenderConfig{
			Ranks:       ranks,
			Fanout:      ranks,
			Comm:        commModel(),
			TileCosts:   costs,
			AssignBytes: 64,
			ResultBytes: resultBytes,
			SetupCost:   setupCost,
			// Per tile only the bandwidth copy into the output grid; the
			// simulator charges message ingest per frame itself.
			StitchPerTile: copyCost,
		}
		star := vtime.SimulateDistRender(cfg)
		cfg.Fanout = distrender.DefaultFanout
		tree := vtime.SimulateDistRender(cfg)
		if ranks == 1 {
			base = star.Makespan
		}
		if tail := tree.Makespan/star.Makespan - 1; tail > worstTail {
			worstTail, worstRanks = tail, ranks
		}
		// The saturation term: serialized per-frame protocol overhead at
		// rank 0's gather — one frame per tile in the star, coalesced
		// frames in the tree (the stitch copy itself is identical bytes in
		// both and is excluded).
		starOH := float64(star.RootFrames) * commModel().SendOverhead
		treeOH := float64(tree.RootFrames) * commModel().SendOverhead
		r.Rowf("%-7d %7d %11.3f %8.1f %11.3f %8.1f %6d %7d %10.4f %10.4f",
			ranks, len(tiles),
			star.Makespan, base/star.Makespan,
			tree.Makespan, base/tree.Makespan,
			tree.Depth, tree.RootFrames, starOH, treeOH)
	}
	r.Notef("calibration: %d particles, %.3g s/column, %.3g s setup; virtual grid %d^2",
		n, perColumn, setupCost, bigN)
	r.Notef("one protocol, two fanouts: the star (fanout = ranks) saturates at the coordinator's per-frame gather serialization, one frame per tile (star-oh); at fanout %d interior ranks coalesce tiles into frames, so rank 0 pays per-frame overhead at log depth (tree-oh) and the floor drops to the scatter plus the output-grid copy",
		distrender.DefaultFanout)
	r.Notef("below saturation the tree pays a relay tail for that floor — interior ranks forward child frames behind their own marches — at worst %.0f%% over the star, at %d ranks; the batches, per-frame costs and recovery are the same code, so fanout is the only topology knob",
		100*worstTail, worstRanks)
	r.Elapsed = time.Since(start)
	return r, nil
}
