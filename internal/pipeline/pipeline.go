// Package pipeline is the paper's distributed-memory framework (Section
// IV): given particles spread arbitrarily over ranks and a set of field
// centers, it runs the four phases
//
//  1. data partitioning and redistribution (uniform sub-volumes + ghost
//     zones sized so every field is computable locally),
//  2. workload modeling (count particles per work item, time one random
//     item, Allgather, fit f_tri = c·n·log2 n and f_interp = α·n^β),
//  3. work-sharing scheduling (CreateCommunicationList + first-fit
//     variable-size bin packing of local items around send points), and
//  4. execution and communication (receivers drain local work then take
//     shipped work; senders interleave computing with sends),
//
// and reports per-phase wall times, per-item measurements, and (optionally)
// the rendered fields.
//
// Phase 4 has two executors. The default follows the paper's a-priori
// work-sharing schedule. The fault-tolerant executor (Config.Recovery)
// replaces it with a runtime protocol — ring buddy checkpoints, per-item
// progress heartbeats to a coordinator, straggler detection against the
// model-predicted item costs, and re-dispatch of a failed or yielded
// rank's unfinished items to its checkpoint buddy — so that the schedule
// misprediction failures of the paper's Fig 13 (and outright rank deaths)
// degrade gracefully instead of stalling the job. Runs that suffer
// unrecoverable loss return a partial Result with per-field status plus an
// error summary rather than hanging.
package pipeline

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"godtfe/internal/delaunay"
	"godtfe/internal/domain"
	"godtfe/internal/dtfe"
	"godtfe/internal/fault"
	"godtfe/internal/geom"
	"godtfe/internal/geomerr"
	"godtfe/internal/grid"
	"godtfe/internal/kdtree"
	"godtfe/internal/model"
	"godtfe/internal/mpi"
	"godtfe/internal/particleio"
	"godtfe/internal/render"
	"godtfe/internal/sched"
)

const tagWork = 100

// Config configures a pipeline run.
type Config struct {
	// Box is the full simulation volume.
	Box geom.AABB
	// FieldLen is the physical edge length of each (cubic) field
	// sub-volume; the output grid covers FieldLen × FieldLen and the
	// integration runs over the same z extent.
	FieldLen float64
	// GridN is the output grid resolution per field (GridN×GridN).
	GridN int
	// BufferFrac pads the triangulation cube beyond the field volume on
	// each side (fraction of FieldLen) so hull-boundary bias stays outside
	// the rendered region. Default 0.25.
	BufferFrac float64
	// Workers is the shared-memory worker count for each render. Default 1.
	Workers int
	// Periodic wraps ghost zones across the box faces, so fields near the
	// box boundary see the full periodic neighborhood (cosmological
	// convention).
	Periodic bool
	// LoadBalance enables phase 3's a-priori work sharing.
	LoadBalance bool
	// KeepFields retains rendered grids in the result.
	KeepFields bool
	// MinParticles below which an item renders as an empty field (the
	// triangulation needs at least 4 independent points to mean anything).
	// Default 16.
	MinParticles int
	// Seed drives the random test-item choice.
	Seed int64

	// ---- ingestion hardening -----------------------------------------

	// Ingest is the particle-validation policy applied to this rank's
	// local particles before Phase 1. The zero value is fail-fast: any
	// non-finite coordinate aborts the run with a typed error
	// (geomerr.ErrBadParticle). Set Ingest.Policy to particleio.PolicyDrop
	// or PolicyClamp to sanitize instead; the tally lands in
	// Result.Ingest.
	Ingest particleio.ValidateOptions

	// ---- robustness knobs (fault-tolerant Phase 4) -------------------

	// Recovery enables the fault-tolerant Phase 4 executor (buddy
	// checkpoints, heartbeats, straggler yield, re-dispatch). It replaces
	// the a-priori work-sharing schedule, so it is mutually exclusive
	// with LoadBalance.
	Recovery bool
	// Fault optionally injects deterministic faults (crashes,
	// stragglers) at the pipeline's instrumentation points. Message-level
	// faults are installed on the mpi.World directly.
	Fault *fault.Injector
	// HeartbeatEvery is the coordinator's monitoring tick and bounds
	// failure-detection latency. Default 10ms.
	HeartbeatEvery time.Duration
	// StragglerThreshold flags a rank whose measured Phase 4 item times
	// exceed threshold × the model-predicted times; must exceed 1.
	// Default 4.
	StragglerThreshold float64
	// MaxSendRetries caps mpi-level send retries on injected drops.
	// Default 5.
	MaxSendRetries int
	// DeadTimeout is the silence window after which the recovery
	// protocol stops waiting for an unresponsive peer and degrades.
	// Default 50 × HeartbeatEvery.
	DeadTimeout time.Duration
}

func (c *Config) fill() error {
	if c.FieldLen <= 0 || c.GridN <= 0 {
		return errors.New("pipeline: FieldLen and GridN must be positive")
	}
	if c.BufferFrac == 0 {
		c.BufferFrac = 0.25
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MinParticles <= 0 {
		c.MinParticles = 16
	}
	if c.Recovery && c.LoadBalance {
		return errors.New("pipeline: Recovery replaces the a-priori work-sharing schedule; it cannot be combined with LoadBalance")
	}
	if c.HeartbeatEvery < 0 {
		return fmt.Errorf("pipeline: HeartbeatEvery must be >= 0, got %v", c.HeartbeatEvery)
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = 10 * time.Millisecond
	}
	if c.StragglerThreshold < 0 {
		return fmt.Errorf("pipeline: StragglerThreshold must not be negative, got %v", c.StragglerThreshold)
	}
	if c.StragglerThreshold > 0 && c.StragglerThreshold <= 1 {
		return fmt.Errorf("pipeline: StragglerThreshold must exceed 1 (a rank is a straggler only when slower than predicted), got %v", c.StragglerThreshold)
	}
	if c.StragglerThreshold == 0 {
		c.StragglerThreshold = 4
	}
	if c.MaxSendRetries < 0 {
		return fmt.Errorf("pipeline: MaxSendRetries must be >= 0, got %d", c.MaxSendRetries)
	}
	if c.MaxSendRetries == 0 {
		c.MaxSendRetries = 5
	}
	if c.DeadTimeout < 0 {
		return fmt.Errorf("pipeline: DeadTimeout must be >= 0, got %v", c.DeadTimeout)
	}
	if c.DeadTimeout == 0 {
		c.DeadTimeout = 50 * c.HeartbeatEvery
	}
	return nil
}

// triCubeSide is the particle-gathering cube edge for one item.
func (c *Config) triCubeSide() float64 { return c.FieldLen * (1 + 2*c.BufferFrac) }

// PhaseTimes are per-phase wall-clock seconds, the paper's Fig 9/12/13
// breakdown.
type PhaseTimes struct {
	Partition   float64
	Model       float64
	Triangulate float64
	Render      float64
	WorkShare   float64
	Total       float64
}

// Add accumulates other into p.
func (p *PhaseTimes) Add(other PhaseTimes) {
	p.Partition += other.Partition
	p.Model += other.Model
	p.Triangulate += other.Triangulate
	p.Render += other.Render
	p.WorkShare += other.WorkShare
	p.Total += other.Total
}

// ItemRecord is one executed work item.
type ItemRecord struct {
	Center     geom.Vec3
	N          int     // particles in the triangulation cube
	TriTime    float64 // seconds
	RenderTime float64
	PredTri    float64 // model predictions (0 when modeling was off)
	PredRender float64
	Shipped    bool // executed on a rank other than its owner (a-priori LB)
	Recovered  bool // re-executed here on behalf of a failed/yielded rank

	// Columns classifies the item's lines of sight by how their marches
	// ended (clean/perturbed/fallback/abandoned).
	Columns render.OutcomeCounts
	// Err is the geometry failure that voided this item's field, if any
	// (degenerate input renders empty with Err set; mesh corruption marks
	// the field failed).
	Err string
}

// Field is one rendered surface-density grid.
type Field struct {
	Center geom.Vec3
	Grid   *grid.Grid2D
}

// FieldState is the completion status of one field of the work list.
type FieldState int

const (
	// FieldDone: computed on its owner as planned.
	FieldDone FieldState = iota
	// FieldRecovered: recomputed on a survivor after its owner failed or
	// yielded.
	FieldRecovered
	// FieldLost: unrecoverable (owner and its checkpoint buddy both
	// failed, or the protocol gave up on it).
	FieldLost
	// FieldFailed: the executing rank hit a non-recoverable geometry
	// error (geomerr.ErrMeshCorrupt or a diverged location walk) while
	// computing the field; the rank survived and reported the failure
	// instead of dying.
	FieldFailed
)

// String renders the state for logs.
func (s FieldState) String() string {
	switch s {
	case FieldDone:
		return "done"
	case FieldRecovered:
		return "recovered"
	case FieldLost:
		return "lost"
	case FieldFailed:
		return "failed"
	}
	return fmt.Sprintf("FieldState(%d)", int(s))
}

// FieldStatus is the per-field completion record carried by Result.
type FieldStatus struct {
	Center geom.Vec3
	State  FieldState
	// Owner is the rank the schedule originally assigned the field to.
	Owner int
}

// Result is one rank's outcome.
type Result struct {
	Rank      int
	Phases    PhaseTimes
	Items     []ItemRecord
	Fields    []Field
	Model     model.WorkModel
	ModelOK   bool
	Sent      int   // work items shipped away
	Received  int   // work items received
	LocalWork int   // items owned by this rank
	CommBytes int64 // bytes this rank sent (partition + sharing)

	// Status records the completion state of every field this rank knows
	// the fate of: fields it computed (done/recovered/failed) and — on
	// the recovery coordinator — fields declared lost.
	Status []FieldStatus
	// Incomplete marks a run that lost peers or fields; Failures carries
	// the human-readable error summary.
	Incomplete bool
	Failures   []string

	// Ingest tallies this rank's particle validation (dropped, clamped,
	// jittered particles and why).
	Ingest particleio.IngestReport
	// Columns aggregates per-column march outcomes over every item this
	// rank computed.
	Columns render.OutcomeCounts
	// Build sums the insert-loop counters of every triangulation this
	// rank built: what the Triangulate phase time was spent on.
	Build delaunay.BuildStats
}

// execKind says on whose behalf an item is being computed.
type execKind int

const (
	execLocal     execKind = iota // this rank's own schedule
	execShipped                   // received via the a-priori work-sharing schedule
	execRecovered                 // recomputed for a failed/yielded peer
)

// degrade converts a peer-failure error into a partial-result return: the
// rank keeps what it computed, records the failure, and surfaces a
// non-nil error alongside the Result. Other errors abort as before.
func degrade(res *Result, stage string, err error) (*Result, error) {
	if errors.Is(err, mpi.ErrRankFailed) || errors.Is(err, mpi.ErrTimeout) || errors.Is(err, mpi.ErrMessageLost) {
		res.Incomplete = true
		res.Failures = append(res.Failures, stage+": "+err.Error())
		return res, fmt.Errorf("pipeline: incomplete run (%s): %w", stage, err)
	}
	return nil, err
}

// Run executes the framework on this rank. localParticles is this rank's
// arbitrary initial share of the dataset (e.g. its file blocks); centers
// must be non-nil on rank 0 (it is broadcast, matching the paper's
// single-reader + broadcast input path).
func Run(c *mpi.Comm, cfg Config, localParticles []geom.Vec3, centers []geom.Vec3) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	c.SetMaxSendRetries(cfg.MaxSendRetries)
	res := &Result{Rank: c.Rank()}
	t0 := time.Now()

	// ---- Phase 0: ingestion validation --------------------------------
	// Sanitize before any particle crosses a rank boundary: a NaN that
	// reaches the exact predicates would once have panicked an entire
	// rank; now it is dropped/clamped/reported per the policy.
	sanitized, _, ingest, err := particleio.ValidateParticles(localParticles, nil, cfg.Ingest)
	res.Ingest = ingest
	if err != nil {
		return nil, fmt.Errorf("pipeline: rank %d ingestion: %w", c.Rank(), err)
	}
	localParticles = sanitized

	// ---- Phase 1: partition & redistribution -------------------------
	if err := crashCheck(cfg, c.Rank(), fault.PointPhase1, 0); err != nil {
		return nil, err
	}
	ghost := cfg.triCubeSide() / 2
	dec, err := domain.NewDecomp(cfg.Box, c.Size(), ghost)
	if err != nil {
		return nil, err
	}
	dec.Periodic = cfg.Periodic
	owned, ghosts, err := domain.Exchange(c, dec, localParticles)
	if err != nil {
		return degrade(res, "phase 1 exchange", err)
	}
	if err := c.Bcast(0, &centers); err != nil {
		return degrade(res, "phase 1 center broadcast", err)
	}
	sub := dec.SubVolume(c.Rank())
	var local []geom.Vec3
	for _, ctr := range centers {
		if dec.OwnerOf(ctr) == c.Rank() && sub.Contains(ctr) {
			local = append(local, ctr)
		}
	}
	res.LocalWork = len(local)
	halo := make([]geom.Vec3, 0, len(owned)+len(ghosts))
	halo = append(halo, owned...)
	halo = append(halo, ghosts...)
	tree := kdtree.New(halo)
	res.Phases.Partition = time.Since(t0).Seconds()

	rt := &runtime{c: c, cfg: cfg, tree: tree, halo: halo, res: res, owner: c.Rank()}

	// ---- Phase 2: workload modeling -----------------------------------
	if err := crashCheck(cfg, c.Rank(), fault.PointPhase2, 0); err != nil {
		return nil, err
	}
	tm := time.Now()
	counts := make([]int, len(local))
	for i, ctr := range local {
		counts[i] = tree.CountInBox(rt.cube(ctr))
	}
	var mine sample
	done := make([]bool, len(local))
	samplePick := -1
	if len(local) > 0 {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(c.Rank())))
		samplePick = rng.Intn(len(local))
		rec := rt.computeItem(local[samplePick], nil, execLocal)
		done[samplePick] = true
		mine = sample{N: float64(rec.N), TTri: rec.TriTime, TRender: rec.RenderTime}
	}
	samples, err := mpi.Allgather(c, mine)
	if err != nil {
		return degrade(res, "phase 2 sample allgather", err)
	}
	var ns, tts, trs []float64
	for _, s := range samples {
		if s.N > 0 {
			ns = append(ns, s.N)
			tts = append(tts, s.TTri)
			trs = append(trs, s.TRender)
		}
	}
	wm, ferr := model.Fit(ns, tts, trs)
	res.ModelOK = ferr == nil
	if ferr != nil {
		// Fall back to a proportional model so every rank agrees.
		wm = fallbackModel(ns, tts, trs)
	}
	res.Model = wm
	pred := make([]float64, len(local))
	var remaining float64
	for i := range local {
		pred[i] = wm.Predict(float64(counts[i]))
		if !done[i] {
			remaining += pred[i]
		}
	}
	res.Phases.Model = time.Since(tm).Seconds()

	// ---- Phase 3: work-sharing schedule --------------------------------
	if err := crashCheck(cfg, c.Rank(), fault.PointPhase3, 0); err != nil {
		return nil, err
	}
	var cl sched.CommList
	var plan sched.SenderPlan
	var pending []int // local item indices still to run (non-LB order)
	for i := range local {
		if !done[i] {
			pending = append(pending, i)
		}
	}
	if cfg.LoadBalance && c.Size() > 1 {
		ts := time.Now()
		totals, err := mpi.Allgather(c, remaining)
		if err != nil {
			return degrade(res, "phase 3 load allgather", err)
		}
		cl = sched.CreateCommunicationList(totals)
		sends := cl.SendsFrom(c.Rank())
		if len(sends) > 0 {
			itemTimes := make([]float64, len(pending))
			for k, i := range pending {
				itemTimes[k] = pred[i]
			}
			avail := make([]float64, len(sends))
			for k, tr := range sends {
				avail[k] = totals[tr.To]
			}
			plan = sched.PlanSender(itemTimes, sends, avail)
		}
		res.Phases.WorkShare = time.Since(ts).Seconds()
	}

	// ---- Phase 4: execution & communication ----------------------------
	if cfg.Recovery && c.Size() > 1 {
		// Fault-tolerant executor: buddy checkpoints + heartbeats +
		// re-dispatch; it carries its own termination protocol, so the
		// final barrier is skipped (dead ranks must not stall it).
		if err := rt.runRecovery(local, pending, pred, samplePick); err != nil {
			return degrade(res, "phase 4 recovery", err)
		}
		res.CommBytes = c.BytesSent()
		res.Phases.Total = time.Since(t0).Seconds()
		if res.Incomplete {
			return res, fmt.Errorf("pipeline: incomplete run: %s", strings.Join(res.Failures, "; "))
		}
		return res, nil
	}

	var failures []string
	if !cfg.LoadBalance || c.Size() == 1 {
		for k, i := range pending {
			if err := crashCheck(cfg, c.Rank(), fault.PointPhase4, k); err != nil {
				return nil, err
			}
			rt.computeTimedItem(local[i], &pred[i], execLocal)
		}
	} else if sends := cl.SendsFrom(c.Rank()); len(sends) > 0 {
		// Sender role.
		executed := 0
		for k := range plan.Sends {
			for _, pi := range plan.GapItems[k] {
				if err := crashCheck(cfg, c.Rank(), fault.PointPhase4, executed); err != nil {
					return nil, err
				}
				i := pending[pi]
				rt.computeTimedItem(local[i], &pred[i], execLocal)
				executed++
			}
			tw := time.Now()
			pkg := rt.buildPackage(local, pending, plan.ShipItems[k])
			if err := c.Send(plan.Sends[k].To, tagWork, pkg); err != nil {
				if errors.Is(err, mpi.ErrRankFailed) || errors.Is(err, mpi.ErrMessageLost) {
					failures = append(failures, fmt.Sprintf(
						"phase 4: shipping %d items to rank %d failed: %v",
						len(plan.ShipItems[k]), plan.Sends[k].To, err))
					continue
				}
				return nil, err
			}
			res.Sent += len(plan.ShipItems[k])
			res.Phases.WorkShare += time.Since(tw).Seconds()
		}
		for _, pi := range plan.Tail {
			if err := crashCheck(cfg, c.Rank(), fault.PointPhase4, executed); err != nil {
				return nil, err
			}
			i := pending[pi]
			rt.computeTimedItem(local[i], &pred[i], execLocal)
			executed++
		}
	} else {
		// Receiver (or neutral) role: drain local work, then accept
		// shipped work in the scheduled order.
		for k, i := range pending {
			if err := crashCheck(cfg, c.Rank(), fault.PointPhase4, k); err != nil {
				return nil, err
			}
			rt.computeTimedItem(local[i], &pred[i], execLocal)
		}
		for _, src := range cl.RecvsAt(c.Rank()) {
			tw := time.Now()
			var pkg workPackage
			if _, err := c.Recv(src, tagWork, &pkg); err != nil {
				if errors.Is(err, mpi.ErrRankFailed) {
					// The sender died before shipping: its items are gone
					// with it under the a-priori schedule. Record and keep
					// draining other senders.
					failures = append(failures,
						fmt.Sprintf("phase 4: work package from rank %d lost: %v", src, err))
					continue
				}
				return nil, err
			}
			res.Phases.WorkShare += time.Since(tw).Seconds()
			res.Received += len(pkg.Centers)
			ptree := kdtree.New(pkg.Points)
			for _, ctr := range pkg.Centers {
				rt.computeItemWith(ctr, ptree, pkg.Points, nil, execShipped)
			}
		}
	}

	if err := c.Barrier(); err != nil {
		if errors.Is(err, mpi.ErrRankFailed) {
			failures = append(failures, "final barrier: "+err.Error())
		} else {
			return nil, err
		}
	}
	res.CommBytes = c.BytesSent()
	res.Phases.Total = time.Since(t0).Seconds()
	if len(failures) > 0 {
		res.Incomplete = true
		res.Failures = append(res.Failures, failures...)
	}
	if res.Incomplete {
		return res, fmt.Errorf("pipeline: incomplete run: %s", strings.Join(res.Failures, "; "))
	}
	return res, nil
}

// crashCheck consults the fault injector at an instrumentation point.
func crashCheck(cfg Config, rank int, point string, progress int) error {
	if cfg.Fault != nil && cfg.Fault.ShouldCrash(rank, point, progress) {
		return fault.Crashed(rank, point, progress)
	}
	return nil
}

// workPackage is the payload of a work-sharing message: the shipped field
// centers plus a copy of the sender's particles covering their cubes: the
// pipeline's largest message, both slices crossing as bulk Vec3 blocks.
type workPackage struct {
	Centers []geom.Vec3
	Points  []geom.Vec3
}

// sample is a rank's Phase 2 timing of its test item, allgathered to fit
// the cost model (zero N: the rank had no item).
type sample struct{ N, TTri, TRender float64 }

type runtime struct {
	c     *mpi.Comm
	cfg   Config
	tree  *kdtree.Tree
	halo  []geom.Vec3
	res   *Result
	owner int // rank whose schedule the current item belongs to
}

func (rt *runtime) cube(center geom.Vec3) geom.AABB {
	h := rt.cfg.triCubeSide() / 2
	return geom.AABB{
		Min: center.Sub(geom.Vec3{X: h, Y: h, Z: h}),
		Max: center.Add(geom.Vec3{X: h, Y: h, Z: h}),
	}
}

// computeItem renders the field at center from the rank's halo particles.
func (rt *runtime) computeItem(center geom.Vec3, pred *float64, kind execKind) ItemRecord {
	return rt.computeItemWith(center, rt.tree, rt.halo, pred, kind)
}

// computeTimedItem is computeItem plus straggler fault injection: the
// injected slowdown is charged to the item's wall time so straggler
// detection sees it.
func (rt *runtime) computeTimedItem(center geom.Vec3, pred *float64, kind execKind) ItemRecord {
	t0 := time.Now()
	rec := rt.computeItem(center, pred, kind)
	if rt.cfg.Fault != nil {
		rt.cfg.Fault.StraggleSleep(rt.c.Rank(), time.Since(t0))
	}
	return rec
}

func (rt *runtime) computeItemWith(center geom.Vec3, tree *kdtree.Tree, pts []geom.Vec3, pred *float64, kind execKind) ItemRecord {
	cfg := rt.cfg
	rec := ItemRecord{Center: center, Shipped: kind == execShipped, Recovered: kind == execRecovered}
	idx := tree.InBox(rt.cube(center), nil)
	rec.N = len(idx)
	if pred != nil {
		rec.PredTri = rt.res.Model.Tri.Predict(float64(rec.N))
		rec.PredRender = rt.res.Model.Interp.Predict(float64(rec.N))
	}

	var g *grid.Grid2D
	spec := render.Spec{
		Min:  geom.Vec2{X: center.X - cfg.FieldLen/2, Y: center.Y - cfg.FieldLen/2},
		Nx:   cfg.GridN,
		Ny:   cfg.GridN,
		Cell: cfg.FieldLen / float64(cfg.GridN),
		ZMin: center.Z - cfg.FieldLen/2,
		ZMax: center.Z + cfg.FieldLen/2,
	}
	var itemErr error
	if rec.N >= cfg.MinParticles && rec.N >= 4 {
		sel := make([]geom.Vec3, len(idx))
		for i, id := range idx {
			sel[i] = pts[id]
		}
		t0 := time.Now()
		tri, err := delaunay.New(sel)
		var f *dtfe.Field
		if err == nil {
			rt.res.Build.Add(tri.BuildStats())
			f, err = dtfe.NewField(tri, nil)
		}
		rec.TriTime = time.Since(t0).Seconds()
		if err == nil {
			t1 := time.Now()
			m := render.NewMarcher(f)
			gg, stats, rerr := m.Render(spec, cfg.Workers, render.ScheduleDynamic)
			rec.RenderTime = time.Since(t1).Seconds()
			rec.Columns = render.TotalOutcomes(stats)
			rt.res.Columns.Add(rec.Columns)
			if rerr == nil {
				g = gg
			} else {
				itemErr = rerr
			}
		} else {
			itemErr = err
		}
	}
	if g == nil {
		g = spec.Grid() // degenerate or failed item: empty field
	}
	rt.res.Phases.Triangulate += rec.TriTime
	rt.res.Phases.Render += rec.RenderTime
	state := FieldDone
	if kind == execRecovered {
		state = FieldRecovered
	}
	if itemErr != nil {
		rec.Err = itemErr.Error()
		if errors.Is(itemErr, geomerr.ErrDegenerateInput) || errors.Is(itemErr, geomerr.ErrBadParticle) {
			// The item's own particle set is unusable (all coplanar,
			// duplicate-collapsed below 4 points, ...): an empty field is
			// the correct answer; the record carries the reason.
		} else {
			// Mesh corruption or a diverged walk: the field's numbers
			// cannot be trusted. Report a failed item through the
			// recovery bookkeeping instead of dying with the rank.
			state = FieldFailed
			rt.res.Incomplete = true
			rt.res.Failures = append(rt.res.Failures,
				fmt.Sprintf("item at %v: %v", center, itemErr))
		}
	}
	rt.res.Items = append(rt.res.Items, rec)
	rt.res.Status = append(rt.res.Status, FieldStatus{Center: center, State: state, Owner: rt.owner})
	if cfg.KeepFields {
		rt.res.Fields = append(rt.res.Fields, Field{Center: center, Grid: g})
	}
	return rec
}

// buildPackage gathers the particles needed by the shipped items.
func (rt *runtime) buildPackage(local []geom.Vec3, pending []int, ship []int) workPackage {
	var pkg workPackage
	seen := make(map[int32]struct{})
	for _, pi := range ship {
		ctr := local[pending[pi]]
		pkg.Centers = append(pkg.Centers, ctr)
		for _, id := range rt.tree.InBox(rt.cube(ctr), nil) {
			if _, ok := seen[id]; !ok {
				seen[id] = struct{}{}
				pkg.Points = append(pkg.Points, rt.halo[id])
			}
		}
	}
	return pkg
}

// fallbackModel builds a crude proportional model when the proper fits are
// infeasible (e.g. a single rank or empty samples); all ranks see the same
// inputs so they agree.
func fallbackModel(ns, tts, trs []float64) model.WorkModel {
	var sn, st, sr float64
	for i := range ns {
		sn += ns[i]
		if i < len(tts) {
			st += tts[i]
		}
		if i < len(trs) {
			sr += trs[i]
		}
	}
	cTri, cR := 1e-9, 1e-9
	if sn > 0 {
		if st > 0 {
			cTri = st / sn
		}
		if sr > 0 {
			cR = sr / sn
		}
	}
	return model.WorkModel{
		Tri:    model.TriModel{C: cTri / 10}, // n log n basis ≈ 10x n at our scales
		Interp: model.PowerModel{Alpha: cR, Beta: 1},
	}
}

// String summarizes a result for logs.
func (r *Result) String() string {
	state := ""
	if r.Incomplete {
		state = " INCOMPLETE"
	}
	return fmt.Sprintf("rank %d: items=%d (sent %d, recv %d)%s phases{part=%.3fs model=%.3fs tri=%.3fs render=%.3fs share=%.3fs total=%.3fs} build{%v}",
		r.Rank, len(r.Items), r.Sent, r.Received, state,
		r.Phases.Partition, r.Phases.Model, r.Phases.Triangulate,
		r.Phases.Render, r.Phases.WorkShare, r.Phases.Total, r.Build)
}
