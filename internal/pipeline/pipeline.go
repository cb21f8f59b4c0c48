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
// Phase 4 walks this rank's sched.CommList steps, the same list the
// vtime DES walks. The schedule has no runtime recourse: a peer that dies
// or a package that cannot be delivered loses the fields it carried, and
// the survivors return a partial Result with per-field status plus an
// error summary rather than hanging.
package pipeline

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"time"

	"godtfe/internal/delaunay"
	"godtfe/internal/domain"
	"godtfe/internal/dtfe"
	"godtfe/internal/fault"
	"godtfe/internal/geom"
	"godtfe/internal/geomerr"
	"godtfe/internal/grid"
	"godtfe/internal/model"
	"godtfe/internal/mpi"
	"godtfe/internal/particleio"
	"godtfe/internal/render"
	"godtfe/internal/sched"
)

const tagWork = 100

// Fixed tuning of every run. The ghost buffer stays a constant until it is
// worked out per item from the catalog.
const (
	// bufferFrac pads the triangulation cube beyond the field volume on
	// each side (fraction of FieldLen) so hull-boundary bias stays outside
	// the rendered region.
	bufferFrac = 0.25
	// minParticles is the cube population below which an item renders as
	// an empty field (a triangulation needs at least 4 independent points
	// to mean anything).
	minParticles = 16
)

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
	// Periodic wraps ghost zones across the box faces, so fields near the
	// box boundary see the full periodic neighborhood (cosmological
	// convention).
	Periodic bool
	// LoadBalance enables phase 3's a-priori work sharing.
	LoadBalance bool
	// KeepFields retains rendered grids in the result.
	KeepFields bool
	// Seed drives the random test-item choice.
	Seed int64

	// Ingest is the particle-validation policy applied to this rank's
	// local particles before Phase 1. The zero value is fail-fast: any
	// non-finite coordinate aborts the run with a typed error
	// (geomerr.ErrBadParticle). Set Ingest.Policy to particleio.PolicyDrop
	// to drop and count invalid particles instead; the tally lands in
	// Result.Ingest.
	Ingest particleio.ValidateOptions
}

func (c *Config) check() error {
	if !(c.FieldLen > 0) || math.IsInf(c.FieldLen, 1) || c.GridN <= 0 {
		return errors.New("pipeline: FieldLen must be positive and finite, GridN positive")
	}
	return nil
}

// triCubeSide is the particle-gathering cube edge for one item.
func (c *Config) triCubeSide() float64 { return c.FieldLen * (1 + 2*bufferFrac) }

// hooks are the behaviours of a run that only the test suites choose. The
// zero value is production's: no injected faults and mpi's send retry
// budget.
type hooks struct {
	// fault injects crashes at Phase 4's compute steps. Message-level
	// faults are installed on the mpi.World directly.
	fault *fault.Injector
	// maxSendRetries, when > 0, overrides mpi's send retry budget.
	maxSendRetries int
}

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

	// Columns classifies the item's lines of sight by how their marches
	// ended (clean/perturbed/fallback/abandoned), and Steps counts the tets
	// those marches visited.
	Columns render.OutcomeCounts
	Steps   int64
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
	// FieldDone: computed as the schedule planned.
	FieldDone FieldState = iota
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

	// Status records the completion state of every field this rank
	// computed (done or failed).
	Status []FieldStatus
	// Incomplete marks a run that lost peers or fields; Failures carries
	// the human-readable error summary.
	Incomplete bool
	Failures   []string

	// Ingest tallies this rank's particle validation (dropped particles
	// and why).
	Ingest particleio.IngestReport
	// Columns aggregates per-column march outcomes over every item this
	// rank computed.
	Columns render.OutcomeCounts
	// Build sums the insert-loop counters of every triangulation this
	// rank built: what the Triangulate phase time was spent on.
	Build delaunay.BuildStats
}

// degrade converts a peer-failure error into a partial-result return: the
// rank keeps what it computed, records the failure, and surfaces a
// non-nil error alongside the Result. Other errors abort as before.
func degrade(res *Result, stage string, err error) (*Result, error) {
	if errors.Is(err, mpi.ErrRankFailed) || errors.Is(err, mpi.ErrMessageLost) {
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
	return run(c, cfg, localParticles, centers, hooks{})
}

// run is Run with the test suites' hooks.
func run(c *mpi.Comm, cfg Config, localParticles []geom.Vec3, centers []geom.Vec3, h hooks) (*Result, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if h.maxSendRetries > 0 {
		c.SetMaxSendRetries(h.maxSendRetries)
	}
	res := &Result{Rank: c.Rank()}
	t0 := time.Now()

	// ---- Phase 0: ingestion validation --------------------------------
	// Sanitize before any particle crosses a rank boundary: a NaN that
	// reaches the exact predicates would once have panicked an entire
	// rank; now it is dropped or reported per the policy.
	sanitized, _, ingest, err := particleio.ValidateParticles(localParticles, nil, cfg.Ingest)
	res.Ingest = ingest
	if err != nil {
		return nil, fmt.Errorf("pipeline: rank %d ingestion: %w", c.Rank(), err)
	}
	localParticles = sanitized

	// ---- Phase 1: partition & redistribution -------------------------
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
	index := NewCellIndex(halo, cfg.triCubeSide()/2)
	res.Phases.Partition = time.Since(t0).Seconds()

	rt := &runtime{cfg: cfg, index: index, res: res}

	// ---- Phase 2: workload modeling -----------------------------------
	tm := time.Now()
	counts := make([]int, len(local))
	for i, ctr := range local {
		rt.ids = index.InBox(rt.cube(ctr), rt.ids[:0])
		counts[i] = len(rt.ids)
	}
	var mine sample
	done := make([]bool, len(local))
	if len(local) > 0 {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(c.Rank())))
		samplePick := rng.Intn(len(local))
		rec := rt.computeItem(local[samplePick], false)
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
	wm, ok := fitModel(ns, tts, trs)
	res.Model, res.ModelOK = wm, ok
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
	var pending []int // local item indices still to run
	for i := range local {
		if !done[i] {
			pending = append(pending, i)
		}
	}
	share := cfg.LoadBalance && c.Size() > 1
	ts := time.Now()
	var cl sched.CommList
	var totals []float64
	if share {
		if totals, err = mpi.Allgather(c, remaining); err != nil {
			return degrade(res, "phase 3 load allgather", err)
		}
		cl = sched.CreateCommunicationList(totals)
	}
	itemTimes := make([]float64, len(pending))
	for k, i := range pending {
		itemTimes[k] = pred[i]
	}
	steps := cl.Steps(totals, c.Rank(), itemTimes)
	if share {
		res.Phases.WorkShare = time.Since(ts).Seconds()
	}

	// ---- Phase 4: execution & communication ----------------------------
	// Walk this rank's steps. Compute steps are numbered in order for
	// crash injection; a package that cannot be shipped is recorded and
	// the walk goes on.
	var failures []string
	executed, shipFailed := 0, false
	for _, st := range steps {
		switch st.Kind {
		case sched.Compute:
			if err := crashCheck(h, c.Rank(), fault.PointPhase4, executed); err != nil {
				return nil, err
			}
			rt.computeItem(local[pending[st.Item]], true)
			executed++
		case sched.Ship:
			tw := time.Now()
			pkg := rt.buildPackage(local, pending, st.Items)
			if err := c.Send(st.Peer, tagWork, pkg); err != nil {
				if errors.Is(err, mpi.ErrRankFailed) || errors.Is(err, mpi.ErrMessageLost) {
					failures = append(failures, fmt.Sprintf(
						"phase 4: shipping %d items to rank %d failed: %v",
						len(st.Items), st.Peer, err))
					shipFailed = true
					continue
				}
				return nil, err
			}
			res.Sent += len(st.Items)
			res.Phases.WorkShare += time.Since(tw).Seconds()
		case sched.Recv:
			tw := time.Now()
			var pkg workPackage
			if _, err := c.Recv(st.Peer, tagWork, &pkg); err != nil {
				if errors.Is(err, mpi.ErrRankFailed) {
					// The sender died or lost the package: its items are
					// gone with it under the a-priori schedule. Record and
					// keep draining other senders.
					failures = append(failures,
						fmt.Sprintf("phase 4: work package from rank %d lost: %v", st.Peer, err))
					continue
				}
				return nil, err
			}
			res.Phases.WorkShare += time.Since(tw).Seconds()
			res.Received += len(pkg.Centers)
			pindex := NewCellIndex(pkg.Points, cfg.triCubeSide()/2)
			for _, ctr := range pkg.Centers {
				rt.computeItemWith(ctr, pindex, true, st.Peer)
			}
		}
	}

	// After a failed ship the package's receiver is blocked on this rank,
	// which is alive: skip the barrier and return the error, so the world
	// marks this rank failed and the receiver's Recv is released.
	if !shipFailed {
		if err := c.Barrier(); err != nil {
			if errors.Is(err, mpi.ErrRankFailed) || errors.Is(err, mpi.ErrMessageLost) {
				failures = append(failures, "final barrier: "+err.Error())
			} else {
				return nil, err
			}
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
func crashCheck(h hooks, rank int, point string, progress int) error {
	if h.fault != nil && h.fault.ShouldCrash(rank, point, progress) {
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
	cfg   Config
	index *CellIndex // over the rank's halo: owned then ghost particles
	res   *Result
	ids   []int32 // an item's cube query, reused from item to item
}

func (rt *runtime) cube(center geom.Vec3) geom.AABB {
	h := rt.cfg.triCubeSide() / 2
	return geom.AABB{
		Min: center.Sub(geom.Vec3{X: h, Y: h, Z: h}),
		Max: center.Add(geom.Vec3{X: h, Y: h, Z: h}),
	}
}

// computeItem renders the field at center from the rank's halo particles;
// predict records the cost model's predictions (off before the model is
// fit).
func (rt *runtime) computeItem(center geom.Vec3, predict bool) ItemRecord {
	return rt.computeItemWith(center, rt.index, predict, rt.res.Rank)
}

// lexCompare orders points by (X, Y, Z). It short-circuits: cmp.Or over
// three cmp.Compare calls evaluates all three and more than doubles the
// cost of sorting a 4 000-point item.
func lexCompare(a, b geom.Vec3) int {
	switch {
	case a.X < b.X:
		return -1
	case a.X > b.X:
		return 1
	case a.Y < b.Y:
		return -1
	case a.Y > b.Y:
		return 1
	case a.Z < b.Z:
		return -1
	case a.Z > b.Z:
		return 1
	}
	return 0
}

// ItemSpec is the grid of the field centred at center: fieldLen across in
// x and y, gridN cells a side, integrated over fieldLen in z.
func ItemSpec(center geom.Vec3, fieldLen float64, gridN int) render.Spec {
	return render.Spec{
		Min:  geom.Vec2{X: center.X - fieldLen/2, Y: center.Y - fieldLen/2},
		Nx:   gridN,
		Ny:   gridN,
		Cell: fieldLen / float64(gridN),
		ZMin: center.Z - fieldLen/2,
		ZMax: center.Z + fieldLen/2,
	}
}

// ItemField builds the DTFE field of an item's cube from its points, which
// it first sorts in place into coordinate order. A rank holds its points
// local-then-ghost, and the mesh's numbers follow its vertex indices, so
// the field is then the same at any rank count.
func ItemField(sel []geom.Vec3) (*dtfe.Field, error) {
	slices.SortFunc(sel, lexCompare)
	tri, err := delaunay.New(sel)
	if err != nil {
		return nil, err
	}
	return dtfe.NewField(tri, nil)
}

// computeItemWith renders the field at center from the points of index;
// owner is the rank whose schedule planned the item.
func (rt *runtime) computeItemWith(center geom.Vec3, index *CellIndex, predict bool, owner int) ItemRecord {
	cfg := rt.cfg
	rec := ItemRecord{Center: center, Shipped: owner != rt.res.Rank}
	rt.ids = index.InBox(rt.cube(center), rt.ids[:0])
	rec.N = len(rt.ids)
	if predict {
		rec.PredTri = rt.res.Model.Tri.Predict(float64(rec.N))
		rec.PredRender = rt.res.Model.Interp.Predict(float64(rec.N))
	}

	var g *grid.Grid2D
	spec := ItemSpec(center, cfg.FieldLen, cfg.GridN)
	var itemErr error
	if rec.N >= minParticles {
		sel := make([]geom.Vec3, len(rt.ids))
		for i, id := range rt.ids {
			sel[i] = index.pts[id]
		}
		t0 := time.Now()
		f, err := ItemField(sel)
		rec.TriTime = time.Since(t0).Seconds()
		if err == nil {
			rt.res.Build.Add(f.Tri.BuildStats())
			t1 := time.Now()
			m := render.NewMarcher(f)
			gg, stats, rerr := m.Render(spec, 1, render.ScheduleDynamic)
			rec.RenderTime = time.Since(t1).Seconds()
			rec.Columns = render.TotalOutcomes(stats)
			for _, st := range stats {
				rec.Steps += st.Steps
			}
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
	if itemErr != nil {
		rec.Err = itemErr.Error()
		if errors.Is(itemErr, geomerr.ErrDegenerateInput) || errors.Is(itemErr, geomerr.ErrBadParticle) {
			// The item's own particle set is unusable (all coplanar,
			// duplicate-collapsed below 4 points, ...): an empty field is
			// the correct answer; the record carries the reason.
		} else {
			// Mesh corruption or a diverged walk: the field's numbers
			// cannot be trusted. Report a failed item in the field
			// status instead of dying with the rank.
			state = FieldFailed
			rt.res.Incomplete = true
			rt.res.Failures = append(rt.res.Failures,
				fmt.Sprintf("item at %v: %v", center, itemErr))
		}
	}
	rt.res.Items = append(rt.res.Items, rec)
	rt.res.Status = append(rt.res.Status, FieldStatus{Center: center, State: state, Owner: owner})
	if cfg.KeepFields {
		rt.res.Fields = append(rt.res.Fields, Field{Center: center, Grid: g})
	}
	return rec
}

// buildPackage gathers the particles needed by the shipped items.
func (rt *runtime) buildPackage(local []geom.Vec3, pending []int, ship []int) workPackage {
	var pkg workPackage
	halo := rt.index.pts
	seen := make([]bool, len(halo))
	for _, pi := range ship {
		ctr := local[pending[pi]]
		pkg.Centers = append(pkg.Centers, ctr)
		rt.ids = rt.index.InBox(rt.cube(ctr), rt.ids[:0])
		for _, id := range rt.ids {
			if !seen[id] {
				seen[id] = true
				pkg.Points = append(pkg.Points, halo[id])
			}
		}
	}
	return pkg
}

// fitModel fits Phase 2's work model to the allgathered samples and
// reports whether the fit is usable. A fit whose cost does not grow with
// the particle count (Interp.Beta < 0 or Tri.C <= 0, as timing noise on a
// few samples can give) would let the schedule ship nothing from the most
// crowded rank, so it counts as failed like an infeasible one and the
// proportional fallbackModel replaces it. Every rank passes the same
// samples, so all ranks agree on the model.
func fitModel(ns, tts, trs []float64) (model.WorkModel, bool) {
	wm, err := model.Fit(ns, tts, trs)
	if err != nil || wm.Interp.Beta < 0 || wm.Tri.C <= 0 {
		return fallbackModel(ns, tts, trs), false
	}
	return wm, true
}

// fallbackModel builds a crude proportional model when the proper fits are
// infeasible (e.g. a single rank or empty samples) or unusable; all ranks
// see the same inputs so they agree.
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
