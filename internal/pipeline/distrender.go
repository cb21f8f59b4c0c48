package pipeline

import (
	"context"
	"fmt"
	"time"

	"godtfe/internal/fault"
	"godtfe/internal/geom"
	"godtfe/internal/mpi"
	"godtfe/internal/particleio"
	"godtfe/internal/render"
	"godtfe/internal/render/distrender"
)

// DistRenderConfig drives RunDistributedRender, the single-grid
// counterpart of the many-fields pipeline: one render.Spec grid sharded
// into cost-balanced column tiles and fanned out over the communicator.
// Tile sizing reuses the internal/model power law through
// distrender.MakeTiles, the same cost family Phase 3 load balancing fits.
type DistRenderConfig struct {
	// Spec is the output grid and integration domain.
	Spec render.Spec
	// Render knobs (see distrender.Config for semantics).
	Tiles     int
	EvenTiles bool
	CostBeta  float64
	Workers   int
	Sched     render.Schedule
	Halo      float64
	Guard     int
	// Fanout is the gather-tree arity (distrender.DefaultFanout when 0;
	// >= ranks is a star).
	Fanout int
	// Ingest is the rank-0 particle-validation policy applied before
	// tiling (fail-fast by default, like the pipeline's Phase 1).
	Ingest particleio.ValidateOptions
	// Fault optionally injects compute-level faults (crashes at
	// fault.PointTile, stragglers), as in Config.Fault; message-level
	// faults are installed on the mpi.World directly.
	Fault *fault.Injector
	// Robustness knobs, mirroring the pipeline's recovery phase.
	TileTimeout          time.Duration
	Poll                 time.Duration
	MaxSendRetries       int
	NoCoordinatorCompute bool
}

// DistRenderResult is rank 0's stitched output plus phase accounting.
type DistRenderResult struct {
	*distrender.Result
	// Ingest tallies the catalog validation on rank 0.
	Ingest particleio.IngestReport
	// IngestTime and RenderTime split the phase wall time.
	IngestTime time.Duration
	RenderTime time.Duration
}

// RunDistributedRender executes the distributed render phase on this
// rank. Rank 0 passes the catalog (validated under cfg.Ingest before
// tiling); workers pass nil. Rank 0 returns the stitched result, workers
// return (nil, nil) after a clean shutdown. Faults installed on the
// mpi.World (message level) and via world injectors are honored the same
// way the recovery pipeline honors them.
func RunDistributedRender(c *mpi.Comm, cfg DistRenderConfig, pts []geom.Vec3) (*DistRenderResult, error) {
	return RunDistributedRenderCtx(context.Background(), c, cfg, pts)
}

// RunDistributedRenderCtx is RunDistributedRender under a caller context:
// cancelling ctx (or its deadline passing) makes the rank-0 coordinator
// stop dispatching, shut the surviving workers down cleanly, and return
// the partial result with a typed *distrender.CancelledError instead of
// leaking the run. The ingest phase is also gated on ctx so a dead caller
// never pays for validation.
func RunDistributedRenderCtx(ctx context.Context, c *mpi.Comm, cfg DistRenderConfig, pts []geom.Vec3) (*DistRenderResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	dcfg := distrender.Config{
		Spec:                 cfg.Spec,
		Tiles:                cfg.Tiles,
		EvenTiles:            cfg.EvenTiles,
		CostBeta:             cfg.CostBeta,
		Workers:              cfg.Workers,
		Sched:                cfg.Sched,
		Halo:                 cfg.Halo,
		Guard:                cfg.Guard,
		Fanout:               cfg.Fanout,
		Fault:                cfg.Fault,
		TileTimeout:          cfg.TileTimeout,
		Poll:                 cfg.Poll,
		MaxSendRetries:       cfg.MaxSendRetries,
		NoCoordinatorCompute: cfg.NoCoordinatorCompute,
	}
	if c.Rank() != 0 {
		_, err := distrender.RunCtx(ctx, c, dcfg, nil)
		return nil, err
	}

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: distributed render: %w", err)
	}
	out := &DistRenderResult{}
	start := time.Now()
	clean, _, report, err := particleio.ValidateParticles(pts, nil, cfg.Ingest)
	if err != nil {
		return nil, fmt.Errorf("pipeline: distributed render ingest: %w", err)
	}
	out.Ingest = report
	out.IngestTime = time.Since(start)

	start = time.Now()
	res, err := distrender.RunCtx(ctx, c, dcfg, clean)
	out.Result = res
	out.RenderTime = time.Since(start)
	return out, err
}
