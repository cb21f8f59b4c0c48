package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	"godtfe"
	"godtfe/internal/delaunay"
	"godtfe/internal/dtfe"
	"godtfe/internal/geom"
	"godtfe/internal/grid"
	"godtfe/internal/halo"
	"godtfe/internal/mpi"
	"godtfe/internal/render"
	"godtfe/internal/render/distrender"
)

// runDistFields measures godtfe.RunDistributed: many small field
// reconstructions centred on friends-of-friends halos, as the paper
// places them, spread over in-process ranks with work sharing on.
func runDistFields(e *env) (*outcome, error) {
	o := &outcome{}
	sz := e.sz
	var pts, centers []geom.Vec3
	err := e.timeSetups(func() error {
		pts = catalog(sz.fieldsN, e.seed)
		// The halos are those of the master catalog, so every seed
		// reconstructs the same fields from its own particles: which halos
		// are "the largest" flips with the subsample, and the fields differ
		// enough in cost that seeds 1–3 then read 891–969 ms.
		master := masterCatalog(sz.fieldsN)
		halos := halo.Find(master, 0.2*halo.MeanSeparation(master), 5)
		centers = halo.Centers(halos, sz.fieldsCount)
		if len(centers) < sz.fieldsCount {
			return fmt.Errorf("friends-of-friends found %d halos, need %d", len(centers), sz.fieldsCount)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cfg := godtfe.PipelineConfig{
		Box: unitBox, FieldLen: sz.fieldLen, GridN: sz.fieldsGrid,
		LoadBalance: true, KeepFields: true, Seed: e.seed,
	}

	var firstGrids map[geom.Vec3]*grid.Grid2D // by centre, from the first block
	phase := map[string][]float64{}           // per traced block, summed over ranks
	bt, err := e.runBlocks(func(i int, tr *tracer) (time.Duration, error) {
		id := tr.begin(0, i, "pipeline", "RunDistributed")
		t0 := time.Now()
		results, err := godtfe.RunDistributed(sz.ranks, cfg, pts, centers)
		d := time.Since(t0)
		tr.end(id, nil)
		if err != nil {
			return 0, err
		}
		o.attempted += int64(len(centers))
		got := map[geom.Vec3]*grid.Grid2D{}
		for _, r := range results {
			if r.Incomplete {
				o.fail("block %d: rank %d incomplete: %v", i, r.Rank, r.Failures)
			}
			for _, f := range r.Fields {
				got[f.Center] = f.Grid
			}
		}
		for _, c := range centers {
			g := got[c]
			if g == nil {
				o.fail("block %d: no field for centre %v", i, c)
				continue
			}
			// Work sharing may render a field on another rank, which
			// holds the particles in another order: equal to 1e-9, not
			// to the bit.
			if firstGrids != nil && !sameCells(g, firstGrids[c]) {
				o.fail("block %d: field at %v differs from block 0", i, c)
			}
		}
		if firstGrids == nil {
			firstGrids = got
		}
		if tr != nil {
			pipelineCounts(phase, results)
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	for i, s := range bt.wall {
		o.block(1e3*s, float64(len(centers))/s, bt.speed[i])
	}

	// Oracle: a few fields against a direct single-rank reconstruction of
	// the same cube of particles.
	side := sz.fieldLen * 1.5 // FieldLen × (1 + 2·BufferFrac), BufferFrac 0.25
	for k := 0; k < len(centers); k += max(1, len(centers)/3) {
		c := centers[k]
		o.attempted++
		want, err := directField(pts, c, side, sz.fieldLen, sz.fieldsGrid)
		if err != nil {
			return nil, fmt.Errorf("oracle field: %w", err)
		}
		got := firstGrids[c]
		if e.corrupt && k == 0 && got != nil {
			got = got.Clone()
			got.Data[0] += 1
		}
		if got == nil || !sameCells(got, want) {
			o.fail("field at %v differs from the single-rank reconstruction", c)
		}
	}

	if e.trace {
		for name, v := range phase {
			o.set(name, median(v))
		}
		if err := mpiProbes(e, o); err != nil {
			return nil, err
		}
	}
	e.hostMetrics(o, bt)
	return o, nil
}

// pipelineCounts sums one run's per-rank phase times and counters.
func pipelineCounts(phase map[string][]float64, results []*godtfe.PipelineResult) {
	var part, mod, tri, ren, ws, total, comm, shipped float64
	var relErr, busy []float64
	for _, r := range results {
		part += r.Phases.Partition
		mod += r.Phases.Model
		tri += r.Phases.Triangulate
		ren += r.Phases.Render
		ws += r.Phases.WorkShare
		total += r.Phases.Total
		comm += float64(r.CommBytes)
		shipped += float64(r.Sent)
		busy = append(busy, r.Phases.Triangulate+r.Phases.Render)
		for _, it := range r.Items {
			if pred, act := it.PredTri+it.PredRender, it.TriTime+it.RenderTime; pred > 0 && act > 0 {
				relErr = append(relErr, math.Abs(pred-act)/act)
			}
		}
	}
	var mean float64
	for _, b := range busy {
		mean += b / float64(len(busy))
	}
	add := func(name string, v float64) { phase[name] = append(phase[name], v) }
	add("pipeline.partition_s", part)
	add("pipeline.model_s", mod)
	add("pipeline.triangulate_s", tri)
	add("pipeline.render_s", ren)
	add("pipeline.workshare_s", ws)
	add("pipeline.overhead_frac", 1-ratio(tri+ren, total))
	add("pipeline.comm_bytes", comm)
	add("sched.shipped_items", shipped)
	add("sched.imbalance", ratio(maxOf(busy), mean))
	add("model.rel_err_p50", median(relErr))
}

// directField reconstructs one field the plain way: the particles inside
// the triangulation cube, one Delaunay build, one render.
func directField(pts []geom.Vec3, c geom.Vec3, side, fieldLen float64, gridN int) (*grid.Grid2D, error) {
	h := side / 2
	cube := geom.AABB{Min: c.Sub(geom.Vec3{X: h, Y: h, Z: h}), Max: c.Add(geom.Vec3{X: h, Y: h, Z: h})}
	var sel []geom.Vec3
	for _, p := range pts {
		if cube.Contains(p) {
			sel = append(sel, p)
		}
	}
	tri, err := delaunay.New(sel)
	if err != nil {
		return nil, err
	}
	f, err := dtfe.NewField(tri, nil)
	if err != nil {
		return nil, err
	}
	spec := render.Spec{
		Min: geom.Vec2{X: c.X - fieldLen/2, Y: c.Y - fieldLen/2}, Nx: gridN, Ny: gridN,
		Cell: fieldLen / float64(gridN), ZMin: c.Z - fieldLen/2, ZMax: c.Z + fieldLen/2,
	}
	g, _, err := render.NewMarcher(f).Render(spec, 1, render.ScheduleDynamic)
	return g, err
}

// sameCells compares two grids cell by cell to a relative 1e-9: the
// pipeline hands each rank its particles in exchange order, so vertex
// densities are summed in another order than the direct build's and the
// last bits may differ.
func sameCells(a, b *grid.Grid2D) bool {
	if a == nil || b == nil || a.Nx != b.Nx || a.Ny != b.Ny {
		return false
	}
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > 1e-9*(math.Abs(a.Data[i])+math.Abs(b.Data[i])) {
			return false
		}
	}
	return true
}

// distGridOnce is cmd/dtfe-render -ranks N without the file: catalog in
// memory on rank 0 → tiles scattered → per-rank build and march →
// gathered, stitched grid → PGM bytes.
func distGridOnce(pts []geom.Vec3, spec render.Spec, ranks int, mode distrender.GatherMode) (time.Duration, *distrender.Result, error) {
	cfg := distrender.Config{Spec: spec, Workers: 1, Gather: mode}
	var res *distrender.Result
	var resErr error
	t0 := time.Now()
	errs := mpi.NewWorld(ranks).RunEach(func(c *mpi.Comm) error {
		var catalog []geom.Vec3
		if c.Rank() == 0 {
			catalog = pts
		}
		r, err := distrender.RunCtx(context.Background(), c, cfg, catalog)
		if c.Rank() == 0 {
			res, resErr = r, err
		}
		return err
	})
	if resErr != nil {
		return 0, nil, resErr
	}
	for r, err := range errs {
		if err != nil {
			return 0, nil, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	var buf bytes.Buffer
	if err := res.Grid.WritePGM(&buf, true); err != nil {
		return 0, nil, err
	}
	return time.Since(t0), res, nil
}

// runDistGrid measures one grid sharded over ranks: scatter, per-rank
// rebuild, wire codec and gather around a small march.
func runDistGrid(e *env) (*outcome, error) {
	o := &outcome{}
	sz := e.sz
	var pts []geom.Vec3
	if err := e.timeSetups(func() error {
		pts = catalog(sz.distN, e.seed)
		return nil
	}); err != nil {
		return nil, err
	}
	box := geom.BoundsOf(pts)
	cell := box.Size().X / float64(sz.distGrid)
	spec := render.Spec{
		Min: geom.Vec2{X: box.Min.X, Y: box.Min.Y}, Nx: sz.distGrid, Ny: sz.distGrid, Cell: cell,
		ZMin: box.Min.Z, ZMax: box.Max.Z, Samples: 1,
	}

	// Reference: the plain single-process render, also the warm block.
	want, err := newMeshOracle(pts)
	if err != nil {
		return nil, err
	}
	wantSum, err := want.checksum(spec)
	if err != nil {
		return nil, err
	}
	if _, _, err := distGridOnce(pts, spec, sz.ranks, distrender.GatherAuto); err != nil {
		return nil, err
	}

	var redispatched, duplicates float64
	bt, err := e.runBlocks(func(i int, tr *tracer) (time.Duration, error) {
		id := tr.begin(0, i, "distrender", "RunCtx")
		d, res, err := distGridOnce(pts, spec, sz.ranks, distrender.GatherAuto)
		tr.end(id, nil)
		if err != nil {
			return 0, err
		}
		o.attempted++
		sum := res.Grid.Checksum()
		if e.corrupt && i == 1 {
			sum ^= 1
		}
		switch {
		case res.Incomplete:
			o.fail("block %d: incomplete result: %v", i, res.Failures)
		case sum != wantSum:
			o.fail("block %d: stitched grid %016x differs from the single-rank render %016x", i, sum, wantSum)
		}
		redispatched += float64(res.Redispatched)
		duplicates += float64(res.Duplicates)
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	for i, s := range bt.wall {
		o.block(1e3*s, 1/s, bt.speed[i])
	}

	if e.trace {
		auto := median(bt.wall)
		probe := func(ranks int, mode distrender.GatherMode) (float64, error) {
			var v []float64
			for i := 0; i < 3; i++ {
				d, res, err := distGridOnce(pts, spec, ranks, mode)
				if err != nil {
					return 0, err
				}
				o.attempted++
				if res.Grid.Checksum() != wantSum {
					o.fail("distrender probe (ranks %d, gather %d) differs from the single-rank render", ranks, mode)
				}
				v = append(v, ms(d))
			}
			return median(v), nil
		}
		single, err := probe(1, distrender.GatherAuto)
		if err != nil {
			return nil, err
		}
		flat, err := probe(sz.ranks, distrender.GatherFlat)
		if err != nil {
			return nil, err
		}
		tree, err := probe(sz.ranks, distrender.GatherTree)
		if err != nil {
			return nil, err
		}
		o.set("distrender.single_ms", single)
		o.set("distrender.flat_ms", flat)
		o.set("distrender.tree_ms", tree)
		o.set("distrender.overhead_frac", ratio(1e3*auto-single, 1e3*auto))
		o.set("distrender.redispatched", redispatched)
		o.set("distrender.duplicates", duplicates)
		if err := mpiProbes(e, o); err != nil {
			return nil, err
		}
	}
	e.hostMetrics(o, bt)
	return o, nil
}
