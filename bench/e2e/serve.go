package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"time"

	"godtfe/internal/delaunay"
	"godtfe/internal/dtfe"
	"godtfe/internal/fieldserve"
	"godtfe/internal/geom"
	"godtfe/internal/grid"
	"godtfe/internal/render"
)

type serveKind int

const (
	serveUnique  serveKind = iota // every request its own family: caches can only cost
	serveOverlap                  // Zipf over hot families with varying extents: caches do the work
)

const catalogName = "catalog"

// leadSegments is how many segments of traffic open the window unscored.
// The caches take 2–4 s of traffic to reach their steady mix (the first
// fifth of an unled window read 30–80% slower than the rest on
// serve_overlap), and set-up, which is repeated, cannot afford that.
const leadSegments = 2

type reqStatus uint8

const (
	reqPending  reqStatus = iota
	reqGood               // full-resolution response
	reqShed               // typed ErrOverloaded: a refusal, not a failure
	reqDegraded           // coarser cached grid: a refusal, not a failure
	reqFailed             // any other error
)

// reqRec is one planned request and, after the run, what became of it.
type reqRec struct {
	due  time.Duration // offset from the segment start
	spec render.Spec

	sent, end time.Duration
	status    reqStatus
	checksum  uint64
	grid      *grid.Grid2D // kept only for oracle samples
	err       error
}

// meshOracle renders specs directly through render.Marcher on a mesh the
// harness built itself from the same points: the reference every served
// grid must equal bit for bit.
type meshOracle struct {
	m    *render.Marcher
	memo map[render.Spec]uint64
}

func newMeshOracle(pts []geom.Vec3) (*meshOracle, error) {
	tri, err := delaunay.New(pts)
	if err != nil {
		return nil, err
	}
	f, err := dtfe.NewField(tri, nil)
	if err != nil {
		return nil, err
	}
	return &meshOracle{m: render.NewMarcher(f), memo: map[render.Spec]uint64{}}, nil
}

func (or *meshOracle) checksum(spec render.Spec) (uint64, error) {
	if sum, ok := or.memo[spec]; ok {
		return sum, nil
	}
	g, _, err := or.m.Render(spec, 1, render.ScheduleDynamic)
	if err != nil {
		return 0, err
	}
	or.memo[spec] = g.Checksum()
	return or.memo[spec], nil
}

// servePlan draws one segment's arrival schedule and request specs from
// the seed. Arrivals are Poisson at a fixed rate (open loop: the schedule
// never waits for replies).
func servePlan(kind serveKind, sz sizes, box geom.AABB, seed int64, rate, seconds float64, seedBase int64) []reqRec {
	rng := rand.New(rand.NewSource(seed*7919 + int64(kind)))
	cell := box.Size().X / float64(sz.lattice)
	fams := overlapFamilies(sz, box)
	zipf := rand.NewZipf(rng, 1.0001, 1, uint64(len(fams)-1))
	var plan []reqRec
	t := 0.0
	for i := 0; ; i++ {
		t += rng.ExpFloat64() / rate
		if t >= seconds {
			break
		}
		r := reqRec{due: time.Duration(t * float64(time.Second))}
		if kind == serveUnique {
			r.spec = render.Spec{
				Min: geom.Vec2{
					X: box.Min.X + float64(rng.Intn(sz.lattice-sz.window+1))*cell,
					Y: box.Min.Y + float64(rng.Intn(sz.lattice-sz.window+1))*cell,
				},
				Nx: sz.window, Ny: sz.window, Cell: cell, Samples: 1,
				Seed: seedBase + int64(i), // unique jitter seed ⇒ unique family
			}
		} else {
			r.spec = fams[zipf.Uint64()]
			r.spec.Nx = sz.nxMin + rng.Intn(sz.nxMax-sz.nxMin+1)
		}
		plan = append(plan, r)
	}
	return plan
}

// overlapFamilies is the hot pool: each family a fixed origin on the
// lattice and its own jitter seed, listed hottest first. Specs carry the
// family's full extent (nxMax × overlapNy). The origins do not depend on
// the run's seed: a column over a halo costs many times one over a void,
// and Zipf(1) puts a third of the traffic on five families, so seeded
// origins would make the workload a different one per seed. The seed
// draws which family and extent each request asks for, and when.
func overlapFamilies(sz sizes, box geom.AABB) []render.Spec {
	rng := rand.New(rand.NewSource(masterSeed*104729 + 11))
	cell := box.Size().X / float64(sz.lattice)
	fams := make([]render.Spec, sz.families)
	for f := range fams {
		fams[f] = render.Spec{
			Min: geom.Vec2{
				X: box.Min.X + float64(rng.Intn(sz.lattice-sz.nxMax+1))*cell,
				Y: box.Min.Y + float64(rng.Intn(sz.lattice-sz.overlapNy+1))*cell,
			},
			Nx: sz.nxMax, Ny: sz.overlapNy, Cell: cell, Samples: 1,
			Seed: int64(1_000_000 + f),
		}
	}
	return fams
}

// openLoop fires plan against svc on its schedule and returns when every
// request has been answered. With a tracer every request gets a span,
// numbered from reqBase. keepEvery > 0 keeps every k-th good grid.
func openLoop(svc *fieldserve.Service, plan []reqRec, rtr *tracer, keepEvery, reqBase int) (late []float64) {
	late = make([]float64, len(plan))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range plan {
		r := &plan[i]
		if d := r.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		r.sent = time.Since(start)
		late[i] = ms(r.sent - r.due)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := rtr.begin(0, reqBase+i, "fieldserve", "Serve")
			resp, err := svc.Serve(context.Background(), fieldserve.Request{Catalog: catalogName, Spec: r.spec})
			r.end = time.Since(start)
			switch {
			case err == nil && resp.Degraded:
				r.status = reqDegraded
			case err == nil:
				r.status, r.checksum = reqGood, resp.Checksum
				if keepEvery > 0 && i%keepEvery == 0 {
					r.grid = resp.Grid
				}
			case errors.Is(err, fieldserve.ErrOverloaded):
				r.status = reqShed
			default:
				r.status, r.err = reqFailed, err
			}
			rtr.end(id, map[string]float64{"status": float64(r.status)})
		}(i)
	}
	wg.Wait()
	return late
}

// lcg is cmd/dtfe-serve's tiny deterministic generator for the churn.
func lcg(seed int64) func() float64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + 1
	return func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x>>11) / float64(1<<53)
	}
}

// bandChurnDelta is cmd/dtfe-serve's update: remove up to 8 particles
// from a narrow interior x-band and add as many back inside it, leaving
// the bounding box alone so the update stays on the incremental path.
func bandChurnDelta(pts []geom.Vec3, rnd func() float64) fieldserve.Delta {
	b := geom.BoundsOf(pts)
	cx := 0.5 * (b.Min.X + b.Max.X)
	band := 0.08 * (b.Max.X - b.Min.X)
	var d fieldserve.Delta
	// Start the scan at a random index so successive deltas do not all
	// remove the band's first eight survivors.
	off := int(rnd() * float64(len(pts)))
	for k := range pts {
		i := (off + k) % len(pts)
		p := pts[i]
		interior := p.X > b.Min.X && p.X < b.Max.X && p.Y > b.Min.Y && p.Y < b.Max.Y && p.Z > b.Min.Z && p.Z < b.Max.Z
		if interior && p.X > cx-band && p.X < cx+band {
			d.Remove = append(d.Remove, i)
			if len(d.Remove) == 8 {
				break
			}
		}
	}
	for range d.Remove {
		d.Add = append(d.Add, geom.Vec3{
			X: cx + band*(2*rnd()-1),
			Y: b.Min.Y + (0.1+0.8*rnd())*(b.Max.Y-b.Min.Y),
			Z: b.Min.Z + (0.1+0.8*rnd())*(b.Max.Z-b.Min.Z),
		})
	}
	return d
}

// applyDeltaToPoints mirrors a delta on a plain point list, in the order
// delaunay.ApplyDelta documents (survivors in order, then additions).
func applyDeltaToPoints(pts []geom.Vec3, d fieldserve.Delta) []geom.Vec3 {
	rm := make(map[int]bool, len(d.Remove))
	for _, r := range d.Remove {
		rm[r] = true
	}
	out := make([]geom.Vec3, 0, len(pts)-len(rm)+len(d.Add))
	for i, p := range pts {
		if !rm[i] {
			out = append(out, p)
		}
	}
	return append(out, d.Add...)
}

// served is the state a serve workload measures: a warmed service over a
// resident catalog.
type served struct {
	svc *fieldserve.Service
	pts []geom.Vec3
	box geom.AABB
}

// serveSetup is what a user pays per fresh catalog: generate it, start
// the service, register, first Serve (the lazy mesh build), and the cache
// warm-up (the hottest families at full extent, or a few windows).
func serveSetup(kind serveKind, sz sizes, seed int64) (*served, error) {
	pts := catalog(sz.serveN, seed)
	box := geom.BoundsOf(pts)
	svc := fieldserve.New(fieldserve.Options{Workers: 1, QueueDepth: sz.queueFor(kind), RenderWorkers: 1})
	if err := svc.Register(catalogName, pts); err != nil {
		svc.Close()
		return nil, err
	}
	var warm []render.Spec
	if kind == serveUnique {
		for _, r := range servePlan(kind, sz, box, seed, 1000, 0.008, -1000) {
			warm = append(warm, r.spec)
		}
	} else {
		fams := overlapFamilies(sz, box)
		warm = fams[:min(8, len(fams))]
	}
	for _, spec := range warm {
		if _, err := svc.Serve(context.Background(), fieldserve.Request{Catalog: catalogName, Spec: spec}); err != nil {
			svc.Close()
			return nil, fmt.Errorf("warm-up serve: %w", err)
		}
	}
	return &served{svc: svc, pts: pts, box: box}, nil
}

func runServe(e *env, kind serveKind) (*outcome, error) {
	o := &outcome{}
	sz := e.sz
	var sv *served
	err := e.timeSetups(func() error {
		if sv != nil {
			sv.svc.Close()
		}
		var err error
		sv, err = serveSetup(kind, sz, e.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer sv.svc.Close()

	rate := sz.overlapRate
	if kind == serveUnique {
		rate = sz.uniqueRate
	}

	// The window is a row of segments of open-loop traffic, each a block:
	// it yields a median latency and a goodput, stated at the speed the
	// host had while it ran. A segment ends when its last request has been
	// answered; under 4× overload the queue refills within 15–40 ms of the
	// next one's start.
	type segment struct {
		at      [2]time.Time
		p50     float64 // ms
		goodput float64 // 1/s
	}
	var (
		segments []segment
		scored   [][]reqRec // scored segments' requests, for the oracle
		late     []float64
		counts   = map[reqStatus]float64{}
		reqCols  float64
		before   fieldserve.Stats
		wall     time.Duration // of the scored segments
		lastSeg  time.Duration
		requests int
	)
	budget := time.Duration(e.seconds * float64(time.Second))
	start := time.Now()
	for seg := 0; ; seg++ {
		if len(scored) >= sz.minBlocks && time.Since(start)+lastSeg > budget {
			break
		}
		segStart := time.Now()
		isScored := seg >= leadSegments
		if seg == leadSegments {
			before = sv.svc.Stats()
		}
		// Every segment has its own arrivals and its own range of jitter
		// seeds, so serve_unique never repeats a family.
		plan := servePlan(kind, sz, sv.box, e.seed+int64(seg)*500_009, rate, sz.segment.Seconds(), int64(seg+1)*1_000_000)
		var tr *tracer
		keepEvery := 0
		if isScored {
			tr, keepEvery = e.tr, sz.oracleEvery
		}
		rssReset := isScored && resetPeakRSS()
		t0 := time.Now()
		segLate := openLoop(sv.svc, plan, tr, keepEvery, requests)
		segWall := time.Since(t0)
		if rssReset {
			e.rssPeaks = append(e.rssPeaks, peakRSSMB())
		}
		lastSeg = time.Since(segStart)

		o.attempted += int64(len(plan))
		requests += len(plan)
		var lat []float64
		done := 0 // full-resolution responses delivered before the segment's arrivals ended
		for i := range plan {
			r := &plan[i]
			switch r.status {
			case reqGood:
				lat = append(lat, ms(r.end-r.due))
				if r.end <= sz.segment {
					done++
				}
				if isScored {
					reqCols += float64(r.spec.Nx)
				}
			case reqFailed, reqPending:
				o.fail("segment %d request %d: %v", seg, i, r.err)
			}
			if isScored {
				counts[r.status]++
			}
		}
		if !isScored {
			continue
		}
		if len(lat) == 0 {
			o.fail("segment %d: no full-resolution response", seg)
			continue
		}
		segments = append(segments, segment{[2]time.Time{t0, t0.Add(sz.segment)}, median(lat), float64(done) / sz.segment.Seconds()})
		o.opMs = append(o.opMs, lat...)
		late = append(late, segLate...)
		wall += segWall
		scored = append(scored, plan)
	}
	after := sv.svc.Stats()
	host, err := e.hostSpeed()
	if err != nil {
		return nil, err
	}
	for i, sg := range segments {
		sp := host.over(sg.at[0], sg.at[1])
		if verbose {
			fmt.Fprintf(os.Stderr, "segment %d: p50 %.1f ms, %.1f good/s, reference kernel %.4f ms, host speed %.3f\n", i, sg.p50, sg.goodput, 1e3*host.refTime(sg.at[0], sg.at[1]), sp)
		}
		o.block(sg.p50, sg.goodput, sp)
	}

	if err := serveOracle(e, o, sv, scored); err != nil {
		return nil, err
	}

	if e.trace {
		n := counts[reqGood] + counts[reqShed] + counts[reqDegraded] + counts[reqFailed] + counts[reqPending]
		d := func(a, b uint64) float64 { return float64(a - b) }
		o.set("fieldserve.shed_frac", counts[reqShed]/n)
		o.set("fieldserve.degraded_frac", counts[reqDegraded]/n)
		o.set("fieldserve.expired", d(after.Expired, before.Expired))
		tileHits, tileMiss := d(after.CacheHits, before.CacheHits), d(after.CacheMiss, before.CacheMiss)
		colHits, colMiss := d(after.ColHits, before.ColHits), d(after.ColMisses, before.ColMisses)
		o.set("fieldserve.tile_hit_ratio", ratio(tileHits, tileHits+tileMiss))
		o.set("fieldserve.col_hit_ratio", ratio(colHits, colHits+colMiss))
		o.set("fieldserve.avg_batch", ratio(d(after.BatchedReqs, before.BatchedReqs), d(after.Batches, before.Batches)))
		o.set("fieldserve.coalesced_frac", ratio(d(after.Coalesced, before.Coalesced), d(after.BatchedReqs, before.BatchedReqs)))
		o.set("fieldserve.marches_per_req", ratio(d(after.Marches, before.Marches), counts[reqGood]))
		o.set("fieldserve.cold_cols_per_req_col", ratio(d(after.ColdColumns, before.ColdColumns), reqCols))
		o.set("fieldserve.tile_evicted", d(after.Evicted, before.Evicted))
		o.set("fieldserve.col_evicted", d(after.ColEvicted, before.ColEvicted))
		o.set("fieldserve.poisoned", d(after.Poisoned, before.Poisoned)+d(after.ColPoisoned, before.ColPoisoned))
		o.set("fieldserve.gen_late_ms_p99", percentile(late, 0.99))
		o.set("fieldserve.latency_p99_ms", percentile(o.opMs, 0.99))
		o.set("fieldserve.good_samples", float64(len(o.opMs)))
		o.set("fieldserve.build_s", float64(after.BuildNs)/1e9)
		if after.Poisoned+after.ColPoisoned > 0 {
			o.fail("%d cache entries failed hit-time verification", after.Poisoned+after.ColPoisoned)
		}
		if err := serveProbes(e, o, sv, kind); err != nil {
			return nil, err
		}
		if kind == serveOverlap {
			if err := deltaProbe(e, o, sv.pts); err != nil {
				return nil, err
			}
			if err := updateProbe(e, o, sv); err != nil {
				return nil, err
			}
		}
		// Open-loop segments are not repeatable blocks, so the overhead is
		// the measured cost of the spans taken over the segments' wall.
		o.set("trace.overhead_frac", n*spanCost()/wall.Seconds())
	}
	e.hostMetrics(o, nil)
	return o, nil
}

// serveOracle checks served grids against direct renders, outside the
// timed segments. Every kept good response (one in oracleEvery, 40
// renders at most) must carry a checksum that matches its own grid and the
// direct render of the same spec on the same points.
func serveOracle(e *env, o *outcome, sv *served, segments [][]reqRec) error {
	const maxRenders = 40
	or, err := newMeshOracle(sv.pts)
	if err != nil {
		return fmt.Errorf("oracle mesh: %w", err)
	}
	checked := 0
	for s, plan := range segments {
		for i := range plan {
			r := &plan[i]
			if r.grid == nil || len(or.memo) >= maxRenders {
				continue
			}
			if e.corrupt && checked == 0 {
				r.checksum ^= 1
			}
			o.attempted++
			checked++
			if got := r.grid.Checksum(); got != r.checksum {
				o.fail("segment %d request %d: response checksum %016x but its grid hashes to %016x", s, i, r.checksum, got)
				continue
			}
			want, err := or.checksum(r.spec)
			if err != nil {
				return fmt.Errorf("oracle render: %w", err)
			}
			if want != r.checksum {
				o.fail("segment %d request %d (%dx%d): served grid differs from the direct render", s, i, r.spec.Nx, r.spec.Ny)
			}
		}
		for i := range plan {
			plan[i].grid = nil
		}
	}
	if checked == 0 {
		o.fail("oracle checked no response")
	}
	o.set("harness.oracle_checked", float64(checked))
	return nil
}

// updateProbe applies a few of cmd/dtfe-serve's band-churn deltas to the
// idle, warmed service, one at a time: what Service.Update costs and how
// much of both caches it invalidates. Afterwards the hottest families are
// served again and must equal a direct render on the edited points.
func updateProbe(e *env, o *outcome, sv *served) error {
	const updates = 5
	ctx := context.Background()
	rnd := lcg(e.seed + 7)
	cur := sv.pts
	before := sv.svc.Stats()
	var updMs []float64
	var rebuilds, dirty float64
	for k := 0; k < updates; k++ {
		d := bandChurnDelta(cur, rnd)
		t0 := time.Now()
		st, err := sv.svc.Update(ctx, catalogName, d)
		if err != nil {
			return fmt.Errorf("update probe %d: %w", k, err)
		}
		updMs = append(updMs, ms(time.Since(t0)))
		cur = applyDeltaToPoints(cur, d)
		rebuilds += float64(st.Rebuilds)
		if st.DirtyAll {
			dirty++
			continue
		}
		for _, iv := range st.DirtyX {
			dirty += (iv.Hi - iv.Lo) / sv.box.Size().X
		}
	}
	after := sv.svc.Stats()
	o.set("fieldserve.update_p50_ms", median(updMs))
	o.set("fieldserve.dirty_cols_per_update", float64(after.DirtyColumns-before.DirtyColumns)/updates)
	o.set("fieldserve.evicted_grids_per_update", float64(after.EvictedByUpdate-before.EvictedByUpdate)/updates)
	o.set("delaunay.delta_rebuild_fallbacks", rebuilds)
	o.set("delaunay.delta_dirty_frac", dirty/updates)

	or, err := newMeshOracle(cur)
	if err != nil {
		return fmt.Errorf("update probe oracle: %w", err)
	}
	fams := overlapFamilies(e.sz, sv.box)
	for _, spec := range fams[:min(3, len(fams))] {
		resp, err := sv.svc.Serve(ctx, fieldserve.Request{Catalog: catalogName, Spec: spec})
		if err != nil {
			return fmt.Errorf("update probe serve: %w", err)
		}
		want, err := or.checksum(spec)
		if err != nil {
			return err
		}
		o.attempted++
		if resp.Checksum != want {
			o.fail("after %d updates the served grid differs from the direct render on the edited points", updates)
		}
	}
	return nil
}

func withSeed(s render.Spec, seed int64) render.Spec {
	s.Seed = seed
	return s
}

// serveProbes measures the service's paths one at a time on the idle,
// warmed service (traced runs only), and on serve_unique the low-load
// diagnostics.
func serveProbes(e *env, o *outcome, sv *served, kind serveKind) error {
	sz := e.sz
	svc := sv.svc
	ctx := context.Background()
	serve := func(spec render.Spec) (*fieldserve.Response, time.Duration, error) {
		t0 := time.Now()
		resp, err := svc.Serve(ctx, fieldserve.Request{Catalog: catalogName, Spec: spec})
		return resp, time.Since(t0), err
	}
	reps := max(5, 40/sz.probeScale)
	or, err := newMeshOracle(sv.pts)
	if err != nil {
		return err
	}

	// Cold serve vs the same specs straight through the marcher: the
	// difference is the service's own overhead (admit, queue, batch,
	// slice, checksum, insert).
	cold := servePlan(serveUnique, sz, sv.box, e.seed+1, 1000, float64(reps)/1000*1.5, -5_000_000)
	var coldMs, directMs []float64
	for i := range cold {
		resp, d, err := serve(cold[i].spec)
		if err != nil {
			return fmt.Errorf("cold probe: %w", err)
		}
		coldMs = append(coldMs, ms(d))
		t0 := time.Now()
		g, _, err := or.m.RenderCtx(ctx, cold[i].spec, 1, render.ScheduleDynamic)
		if err != nil {
			return err
		}
		directMs = append(directMs, ms(time.Since(t0)))
		o.attempted++
		if g.Checksum() != resp.Checksum {
			o.fail("cold probe %d differs from the direct render", i)
		}
	}
	o.set("fieldserve.cold_serve_ms", median(coldMs))
	o.set("fieldserve.direct_render_ms", median(directMs))
	o.set("fieldserve.overhead_us", 1e3*(median(coldMs)-median(directMs)))

	// Exact whole-grid hit.
	var hitUs []float64
	for i := 0; i < 4*reps; i++ {
		resp, d, err := serve(cold[len(cold)-1].spec)
		if err != nil || !resp.CacheHit {
			return fmt.Errorf("tile-hit probe: hit=%v err=%v", resp != nil && resp.CacheHit, err)
		}
		hitUs = append(hitUs, 1e3*ms(d))
	}
	o.set("fieldserve.tile_hit_us", median(hitUs))

	// A fresh extent on a warm family: assembled from cached columns, no
	// march.
	fam := overlapFamilies(sz, sv.box)[0]
	fam.Seed = -77
	if _, _, err := serve(fam); err != nil {
		return err
	}
	st0 := svc.Stats()
	var asmUs []float64
	for i := 1; i <= min(reps, fam.Nx-1, fam.Ny-1); i++ {
		sub := fam
		sub.Nx, sub.Ny = fam.Nx-i, fam.Ny-i
		_, d, err := serve(sub)
		if err != nil {
			return err
		}
		asmUs = append(asmUs, 1e3*ms(d))
	}
	if st := svc.Stats(); st.ColdColumns != st0.ColdColumns {
		o.fail("column-assemble probe marched %d columns", st.ColdColumns-st0.ColdColumns)
	}
	o.set("fieldserve.col_assemble_us", median(asmUs))

	// Slice and checksum, the two per-response costs of a warm hit.
	big, _, err := or.m.Render(fam, 1, render.ScheduleDynamic)
	if err != nil {
		return err
	}
	half := fam
	half.Nx, half.Ny = fam.Nx/2, fam.Ny/2
	cells := float64(half.Nx * half.Ny)
	iters := max(20, 2000/sz.probeScale)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := render.SliceSub(big, half); err != nil {
			return err
		}
	}
	o.set("grid.slice_ns_per_cell", float64(time.Since(t0).Nanoseconds())/float64(iters)/cells)
	t0 = time.Now()
	var sink uint64
	for i := 0; i < iters; i++ {
		sink += big.Checksum()
	}
	o.set("grid.checksum_ns_per_cell", float64(time.Since(t0).Nanoseconds())/float64(iters)/float64(len(big.Data)))
	var buf []byte
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		buf = big.AppendFast(buf[:0])
	}
	o.set("grid.encode_ns_per_cell", float64(time.Since(t0).Nanoseconds())/float64(iters)/float64(len(big.Data)))
	probeSink += sink + uint64(len(buf))

	if kind != serveUnique {
		return nil
	}

	// Shed path: wedge the worker and fill the queue with renders held
	// open by a cancellable context, then time the typed refusal. The
	// first render must be on the worker before the rest are sent, or the
	// last of them finds the queue full and the queue ends one short.
	hold, release := context.WithCancel(ctx)
	var wg sync.WaitGroup
	holdOpen := func(i int) {
		bigSpec := fam
		bigSpec.Nx, bigSpec.Ny, bigSpec.Samples, bigSpec.Seed = 8*sz.lattice, 8*sz.lattice, 4, int64(-9000-i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			svc.Serve(hold, fieldserve.Request{Catalog: catalogName, Spec: bigSpec}) //nolint:errcheck // cancelled below
		}()
	}
	waitFor := func(ready func(fieldserve.Stats) bool) error {
		deadline := time.Now().Add(5 * time.Second)
		for !ready(svc.Stats()) {
			if time.Now().After(deadline) {
				release()
				wg.Wait()
				return errors.New("shed probe: could not fill the queue")
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	}
	holdOpen(0)
	if err := waitFor(func(st fieldserve.Stats) bool { return st.Active >= 1 }); err != nil {
		return err
	}
	for i := 1; i <= sz.queueDepth; i++ {
		holdOpen(i)
	}
	if err := waitFor(func(st fieldserve.Stats) bool { return st.QueueLen >= sz.queueDepth }); err != nil {
		return err
	}
	var shedUs []float64
	for i := 0; i < 8*reps; i++ {
		_, d, err := serve(withSeed(cold[0].spec, int64(-20000-i)))
		if !errors.Is(err, fieldserve.ErrOverloaded) {
			release()
			wg.Wait()
			return fmt.Errorf("shed probe: got %v, want overload", err)
		}
		shedUs = append(shedUs, 1e3*ms(d))
	}
	release()
	wg.Wait()
	o.set("fieldserve.shed_us", median(shedUs))

	// Low-load diagnostics: a four-step rate ladder up to the measured
	// one-worker capacity (a quarter of the offered overload rate). The
	// first step gives latency at 25% load; the ladder gives the highest
	// rate whose p99 stays within 10× a cold serve with nothing shed.
	limit := 10 * median(coldMs)
	capacity := sz.uniqueRate / 4
	stepLen := math.Max(0.05, 0.6/float64(sz.probeScale))
	var maxRate float64
	for step := 1; step <= 4; step++ {
		rate := capacity * float64(step) / 4
		plan := servePlan(serveUnique, sz, sv.box, e.seed+int64(10+step), rate, stepLen, int64(-30_000_000*step))
		openLoop(svc, plan, nil, 0, 0)
		var lat []float64
		refused := 0
		for i := range plan {
			switch plan[i].status {
			case reqGood:
				lat = append(lat, ms(plan[i].end-plan[i].due))
			case reqFailed:
				o.fail("ladder request: %v", plan[i].err)
			default:
				refused++
			}
		}
		if step == 1 {
			o.set("fieldserve.lo_p50_ms", median(lat))
			o.set("fieldserve.lo_p99_ms", percentile(lat, 0.99))
		}
		if refused == 0 && percentile(lat, 0.99) <= limit {
			maxRate = rate
		}
	}
	o.set("fieldserve.max_rate_in_slo", maxRate)
	return nil
}
