package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"time"

	"godtfe/internal/delaunay"
	"godtfe/internal/dtfe"
	"godtfe/internal/geom"
	"godtfe/internal/grid"
	"godtfe/internal/particleio"
	"godtfe/internal/render"
	"godtfe/internal/synth"
)

var unitBox = geom.AABB{Max: geom.Vec3{X: 1, Y: 1, Z: 1}}

// masterSeed fixes the large-scale structure of every catalog.
const masterSeed = 1

// catalog returns about n clustered particles for a run's seed: a
// seed-chosen 16-in-17 subsample of one master synth.HaloSet. Every seed
// thus gets its own point set (its own triangulation, grid and checksums)
// while the halo population — which decides how much work a catalog is;
// two independent DefaultHaloSpec draws differ by 2.5× in dist_fields cost
// — stays the one the sizes and rates in fullSizes were measured on.
func catalog(n int, seed int64) []geom.Vec3 {
	master := masterCatalog(n)
	pts := make([]geom.Vec3, 0, n+n/64)
	x := uint64(seed)*0x9e3779b97f4a7c15 + 0x1234567
	for _, p := range master {
		// splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		if (z^(z>>31))%17 != 0 {
			pts = append(pts, p)
		}
	}
	return pts
}

// masterCatalog is the catalog every seed's catalog of about n particles
// is drawn from.
func masterCatalog(n int) []geom.Vec3 {
	return synth.HaloSet(n+n/16, unitBox, synth.DefaultHaloSpec(), masterSeed)
}

// massTolerance bounds |∫Σ dA − in-hull mass| ÷ mass for the batch grids.
// The grid spans the bounding box, so the only error is pixelisation of
// the hull edge and of unresolved density peaks; the clustered catalogs
// used here measure 0.5–4% at these resolutions.
const massTolerance = 0.10

// gridResult is what one file→grid block produced, for the oracle.
type gridResult struct {
	bits    uint64 // grid.ChecksumBits of the cells
	pgm     uint64 // FNV-1a of the PGM bytes
	mass    float64
	hull    float64 // dtfe.Field.TotalMass
	columns render.OutcomeCounts
	// exact-predicate calls made by the build (all, and the deepest tier)
	exact, deep uint64
}

// fileToGrid is cmd/dtfe-render's sequence with one compute thread:
// catalog on disk → validated read → Delaunay → DTFE field → marcher →
// render → PGM bytes. Spans go to tr when tracing.
func fileToGrid(path string, gridN int, req int, tr *tracer) (time.Duration, *gridResult, error) {
	t0 := time.Now()
	root := tr.begin(0, req, "harness", "file_to_grid")

	s := tr.begin(root, req, "particleio", "ReadAllValidated")
	pts, _, err := particleio.ReadAllValidated(path, particleio.ValidateOptions{})
	if err != nil {
		return 0, nil, fmt.Errorf("read: %w", err)
	}
	tr.end(s, map[string]float64{"particles": float64(len(pts))})
	box := geom.BoundsOf(pts)

	exact0, deep0 := geom.ExactCalls.Load(), geom.DeepExactCalls.Load()
	s = tr.begin(root, req, "delaunay", "New")
	tri, err := delaunay.New(pts)
	if err != nil {
		return 0, nil, fmt.Errorf("triangulate: %w", err)
	}
	exact, deep := geom.ExactCalls.Load()-exact0, geom.DeepExactCalls.Load()-deep0
	tr.end(s, map[string]float64{"points": float64(len(pts)), "exact_calls": float64(exact), "deep_exact": float64(deep)})

	s = tr.begin(root, req, "dtfe", "NewField")
	field, err := dtfe.NewField(tri, nil)
	if err != nil {
		return 0, nil, fmt.Errorf("dtfe: %w", err)
	}
	tr.end(s, nil)

	sz := box.Size()
	cell := sz.X / float64(gridN)
	spec := render.Spec{
		Min: geom.Vec2{X: box.Min.X, Y: box.Min.Y}, Nx: gridN, Ny: int(sz.Y/cell) + 1, Cell: cell,
		ZMin: box.Min.Z, ZMax: box.Max.Z, Nz: gridN, Samples: 1,
	}
	s = tr.begin(root, req, "render", "NewMarcher")
	m := render.NewMarcher(field)
	tr.end(s, nil)

	s = tr.begin(root, req, "render", "Render")
	g, stats, err := m.Render(spec, 1, render.ScheduleDynamic)
	if err != nil {
		return 0, nil, fmt.Errorf("render: %w", err)
	}
	oc := render.TotalOutcomes(stats)
	var steps int64
	for _, st := range stats {
		steps += st.Steps
	}
	tr.end(s, map[string]float64{
		"columns": float64(spec.Nx * spec.Ny), "steps": float64(steps),
		"perturbed": float64(oc.Perturbed), "fallback": float64(oc.Fallback), "abandoned": float64(oc.Abandoned),
	})

	s = tr.begin(root, req, "grid", "WritePGM")
	var buf bytes.Buffer
	if err := g.WritePGM(&buf, true); err != nil {
		return 0, nil, fmt.Errorf("pgm: %w", err)
	}
	tr.end(s, map[string]float64{"bytes": float64(buf.Len())})
	tr.end(root, nil)
	d := time.Since(t0)

	// Outside the timed section: what the oracle needs. The tet count and
	// hull mass are only computed for traced blocks and the first block.
	h := fnv.New64a()
	h.Write(buf.Bytes())
	res := &gridResult{bits: grid.ChecksumBits(g.Data), pgm: h.Sum64(), mass: g.Integral(), columns: oc, exact: exact, deep: deep}
	if tr != nil || req == 0 {
		res.hull = field.TotalMass()
		tr.annotate(root, map[string]float64{"tets": float64(tri.NumFiniteTets())})
	}
	return d, res, nil
}

// runBatch measures file→grid on n clustered particles and a
// gridN-column grid. batch_build sizes it so delaunay.New dominates,
// batch_march so Marcher.Render does.
func runBatch(e *env, n, gridN int, buildHeavy bool) (*outcome, error) {
	o := &outcome{}
	path := e.scratch("catalog.dtfe")
	err := e.timeSetups(func() error {
		pts := catalog(n, e.seed)
		return particleio.WriteDecomposed(path, pts, 4, 4, 4)
	})
	if err != nil {
		return nil, err
	}

	var first *gridResult
	bt, err := e.runBlocks(func(i int, tr *tracer) (time.Duration, error) {
		d, res, err := fileToGrid(path, gridN, i, tr)
		if err != nil {
			return 0, err
		}
		o.attempted++
		if e.corrupt && i == 1 {
			res.bits ^= 1
		}
		if first == nil {
			first = res
			if rel := math.Abs(res.mass-res.hull) / res.hull; rel > massTolerance {
				o.fail("block %d: ∫Σ dA = %.6g but in-hull mass = %.6g (off by %.2f%%)", i, res.mass, res.hull, 100*rel)
			}
		} else if res.bits != first.bits || res.pgm != first.pgm {
			o.fail("block %d: grid %016x / pgm %016x differ from block 0 (%016x / %016x)", i, res.bits, res.pgm, first.bits, first.pgm)
		} else if res.exact != first.exact || res.deep != first.deep {
			o.fail("block %d: %d/%d exact-predicate calls, block 0 made %d/%d", i, res.exact, res.deep, first.exact, first.deep)
		}
		if res.columns.Abandoned > 0 {
			o.fail("block %d: %d columns abandoned", i, res.columns.Abandoned)
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	for i, s := range bt.wall {
		o.block(1e3*s, 1/s, bt.speed[i])
	}

	if e.trace {
		batchLayerMetrics(e, o, path, n)
		pts, err := particleio.ReadAll(path)
		if err != nil {
			return nil, err
		}
		if buildHeavy {
			err = geomProbes(e, o)
			if err == nil {
				err = buildProbes(o, pts)
			}
		} else {
			err = marchProbe(o, pts, gridN/2)
		}
		if err != nil {
			return nil, err
		}
	}
	e.hostMetrics(o, bt)
	return o, nil
}

// batchLayerMetrics derives the per-layer numbers from the traced blocks'
// spans and checks that the phases account for the whole.
func batchLayerMetrics(e *env, o *outcome, path string, n int) {
	tr := e.tr
	read := tr.medianBy("particleio", "ReadAllValidated")
	build := tr.medianBy("delaunay", "New")
	field := tr.medianBy("dtfe", "NewField")
	soa := tr.medianBy("render", "NewMarcher")
	march := tr.medianBy("render", "Render")
	pgm := tr.medianBy("grid", "WritePGM")
	total := tr.medianBy("harness", "file_to_grid")

	var tets, columns, steps, exact, deep float64
	var oc render.OutcomeCounts
	for i := range tr.spans {
		s := &tr.spans[i]
		switch {
		case s.Layer == "harness" && s.Counts != nil:
			tets = s.Counts["tets"]
		case s.Layer == "render" && s.Name == "Render":
			columns, steps = s.Counts["columns"], s.Counts["steps"]
			oc = render.OutcomeCounts{Perturbed: int64(s.Counts["perturbed"]), Fallback: int64(s.Counts["fallback"]), Abandoned: int64(s.Counts["abandoned"])}
		case s.Layer == "delaunay":
			exact, deep = s.Counts["exact_calls"], s.Counts["deep_exact"]
		}
	}
	var fileMB float64
	if st, err := os.Stat(path); err == nil {
		fileMB = float64(st.Size()) / 1e6
	}

	o.set("particleio.read_s", read)
	o.set("particleio.mb_per_s", ratio(fileMB, read))
	o.set("delaunay.build_s", build)
	o.set("delaunay.ns_per_point", ratio(1e9*build, float64(n)))
	o.set("delaunay.tets", tets)
	o.set("delaunay.share_of_op", ratio(build, total))
	o.set("geom.exact_calls_per_kpoint", ratio(1e3*exact, float64(n)))
	o.set("geom.deep_exact_calls", deep)
	o.set("dtfe.field_s", field)
	o.set("dtfe.ns_per_tet", ratio(1e9*field, tets))
	o.set("render.soa_build_s", soa)
	o.set("render.march_s", march)
	o.set("render.share_of_op", ratio(march, total))
	o.set("render.ns_per_column", ratio(1e9*march, columns))
	o.set("render.steps_per_column", ratio(steps, columns))
	o.set("render.ns_per_step", ratio(1e9*march, steps))
	o.set("render.tet_mb_computed", 64*steps/1e6)
	o.set("render.cols_perturbed", float64(oc.Perturbed))
	o.set("render.cols_fallback", float64(oc.Fallback))
	o.set("render.cols_abandoned", float64(oc.Abandoned))
	o.set("grid.pgm_s", pgm)

	// The phase spans must account for the block: self time of the root
	// (what no child covers) stays under 5% of it.
	self := tr.selfTimes()
	var worst float64
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.Layer == "harness" && s.Name == "file_to_grid" && s.dur() > 0 {
			worst = math.Max(worst, self[s.ID]/s.dur())
		}
	}
	o.set("trace.unattributed_frac", worst)
	if worst > 0.05 {
		o.fail("phase spans cover only %.1f%% of a block", 100*(1-worst))
	}
}
