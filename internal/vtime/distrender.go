package vtime

// Virtual-time model of the distributed single-grid render (the
// internal/render/distrender fan-out): a coordinator owns the tiling and
// hands every rank a static batch; rank r's parent is (r-1)/fanout; every
// non-root rank both marches its tiles and relays its children's frames
// upward, coalescing whatever is pending into one frame per flush. The
// coordinator's serial cost therefore scales with the number of FRAMES it
// ingests plus a per-tile stitch that is a pure memory copy. In a star
// (fanout >= ranks) nothing coalesces, the root ingests one frame per tile,
// and strong scaling saturates at tiles x SendOverhead; with interior ranks
// the frame count is bounded by the root's fanout and the relay cadence,
// which moves the floor down to output-grid memory bandwidth.

import "sort"

// DistRenderConfig configures a strong-scaling evaluation of the
// distributed render.
type DistRenderConfig struct {
	Ranks int
	// Fanout is the gather-tree arity (4 when 0, matching distrender);
	// Fanout >= Ranks is the star.
	Fanout int
	Comm   CommModel
	// TileCosts is the marching cost of each tile (seconds on one
	// worker); the tiling is the unit of dispatch.
	TileCosts []float64
	// AssignBytes and ResultBytes size the scatter and gather messages
	// per tile (a tile assignment is small; a gathered tile grid is
	// width×Ny×8 bytes plus stats).
	AssignBytes, ResultBytes int64
	// SetupCost is the per-rank one-time cost before the first tile
	// (replicated triangulation build), paid concurrently by all ranks.
	SetupCost float64
	// StitchPerTile is the cost to copy one gathered tile into the output
	// grid at the coordinator, or out of a child's frame at an interior
	// rank (memory bandwidth, not protocol: every frame additionally costs
	// its receiver Comm.SendOverhead).
	StitchPerTile float64
}

// DistRenderOutcome summarizes one simulated distributed render.
type DistRenderOutcome struct {
	Ranks     int
	Makespan  float64 // wall time until the stitched grid is complete
	CoordBusy float64 // coordinator time in protocol + stitch (the serial term)
	WorkBusy  float64 // total worker marching time
	Tiles     int
	// RootFrames is the number of frames the coordinator ingested — the
	// quantity its serial protocol cost scales with.
	RootFrames int
	// Depth is the deepest leaf-to-root hop count.
	Depth int
}

// frame is one upward message: count tiles arriving at a node at a time.
type frame struct {
	arrive float64
	count  int
}

// SimulateDistRender evaluates the gather schedule. Tiles are statically
// round-robined over the workers; each worker marches its batch
// sequentially, flushing completed tiles to its tree parent after every
// march; interior ranks serialize child-frame ingest and relay on
// the same clock as their own marching, coalescing everything pending into
// one frame per flush — exactly the adaptive batching the real worker loop
// performs. With Ranks == 1 the coordinator marches every tile itself
// (matching distrender's self-compute path).
func SimulateDistRender(cfg DistRenderConfig) DistRenderOutcome {
	out := DistRenderOutcome{Ranks: cfg.Ranks, Tiles: len(cfg.TileCosts)}
	if cfg.Ranks <= 1 {
		out.Makespan = cfg.SetupCost
		for _, c := range cfg.TileCosts {
			out.Makespan += c + cfg.StitchPerTile
			out.WorkBusy += c
			out.CoordBusy += cfg.StitchPerTile
		}
		return out
	}
	fanout := cfg.Fanout
	if fanout <= 0 {
		fanout = 4
	}
	R := cfg.Ranks
	workers := R - 1

	// Static round-robin batches, matching the coordinator's initial
	// distribution over the live world.
	batch := make([][]float64, R)
	for k, c := range cfg.TileCosts {
		r := 1 + k%workers
		batch[r] = append(batch[r], c)
		out.WorkBusy += c
	}

	// Batch scatter: one assignment message per rank with work, serialized
	// on the coordinator (ranks beyond the tile count get nothing, like
	// the coordinator's share loop).
	coord := 0.0
	arriveBatch := make([]float64, R)
	for r := 1; r < R; r++ {
		if len(batch[r]) == 0 {
			continue
		}
		coord += cfg.Comm.SendOverhead
		out.CoordBusy += cfg.Comm.SendOverhead
		arriveBatch[r] = coord + cfg.Comm.Transit(cfg.AssignBytes*int64(len(batch[r])+1))
	}

	// Upward frame streams. Rank r's parent (r-1)/fanout is always a
	// smaller index, so processing ranks highest-first guarantees every
	// child's frames exist before its parent is simulated.
	incoming := make([][]frame, R)
	for r := R - 1; r >= 1; r-- {
		frames := incoming[r]
		sort.Slice(frames, func(a, b int) bool { return frames[a].arrive < frames[b].arrive })
		tiles := batch[r]
		clock := cfg.SetupCost
		if arriveBatch[r] > clock {
			clock = arriveBatch[r]
		}
		parent := (r - 1) / fanout
		pending := 0
		flush := func() {
			if pending == 0 {
				return
			}
			clock += cfg.Comm.SendOverhead
			incoming[parent] = append(incoming[parent], frame{
				arrive: clock + cfg.Comm.Transit(int64(pending)*cfg.ResultBytes),
				count:  pending,
			})
			pending = 0
		}
		for len(tiles) > 0 || len(frames) > 0 || pending > 0 {
			// Drain arrived child frames first, like the worker loop's
			// zero-timeout receive between marches.
			if len(frames) > 0 && frames[0].arrive <= clock {
				f := frames[0]
				frames = frames[1:]
				clock += cfg.Comm.SendOverhead + float64(f.count)*cfg.StitchPerTile
				pending += f.count
				continue
			}
			switch {
			case len(tiles) > 0:
				clock += tiles[0]
				tiles = tiles[1:]
				pending++
			case pending == 0:
				clock = frames[0].arrive // idle: block until the next frame
				continue
			}
			flush()
		}
	}

	// Root: ingest frames in arrival order, serialized with the tail of
	// the scatter; each frame costs one protocol overhead plus a per-tile
	// stitch copy.
	frames := incoming[0]
	sort.Slice(frames, func(a, b int) bool { return frames[a].arrive < frames[b].arrive })
	clock := coord
	stitched := 0
	for _, f := range frames {
		if f.arrive > clock {
			clock = f.arrive
		}
		cost := cfg.Comm.SendOverhead + float64(f.count)*cfg.StitchPerTile
		clock += cost
		out.CoordBusy += cost
		out.RootFrames++
		stitched += f.count
	}
	if stitched != len(cfg.TileCosts) {
		// Conservation violated — make the failure loud in any consumer.
		out.Makespan = -1
		return out
	}
	out.Makespan = clock
	for r := 1; r < R; r++ {
		d := 0
		for p := r; p != 0; p = (p - 1) / fanout {
			d++
		}
		if d > out.Depth {
			out.Depth = d
		}
	}
	return out
}
