package experiments

import (
	"time"

	"godtfe/internal/delaunay"
	"godtfe/internal/dtfe"
	"godtfe/internal/geom"
	"godtfe/internal/pipeline"
	"godtfe/internal/render"
	"godtfe/internal/stats"
	"godtfe/internal/synth"
)

// Fig7 reproduces the distributed-memory comparison with the TESS/DENSE
// estimator (paper Fig 7): one large surface-density grid decomposed into P
// sub-grids, each computed by one rank from its slab of particles (plus
// ghosts). Per-stage times are reported for the baseline's TESS
// (tessellation build) and DENSE (zero-order grid estimation) stages and
// for our Triangulation and Interpolation (marching) stages, with
// speedups.
//
// Ranks carry no inter-rank communication in this experiment (the paper's
// comparison partitions a single field), so each rank's work is executed
// and timed sequentially here — the single-core-faithful way to measure
// per-rank cost — and the parallel time is the per-stage maximum over
// ranks.
func Fig7(opt Options) (*Report, error) {
	opt = opt.fill()
	start := time.Now()
	r := &Report{ID: "fig7", Title: "execution time and speedup vs ranks: TESS/DENSE vs Triangulation/Interpolation"}

	nPart := opt.scaled(50000)
	gridN := opt.scaled(256)
	if gridN < 32 {
		gridN = 32
	}
	procs := []int{1, 2, 4, 8, 16}

	box := geom.AABB{Min: geom.Vec3{}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	pts := synth.HaloSet(nPart, box, synth.DefaultHaloSpec(), opt.Seed+1)
	index := pipeline.NewCellIndex(pts, 0.1)

	type stageTimes struct{ tri, interp, tess, dense float64 }
	timesFor := func(p int) (maxT stageTimes, sumT stageTimes, err error) {
		rows := gridN / p
		for rank := 0; rank < p; rank++ {
			loRow := rank * rows
			hiRow := loRow + rows
			if rank == p-1 {
				hiRow = gridN
			}
			// Slab particles: slab extent + ghost margin.
			margin := 0.1
			lo := float64(loRow)/float64(gridN) - margin
			hi := float64(hiRow)/float64(gridN) + margin
			slab := geom.AABB{
				Min: geom.Vec3{X: 0, Y: maxf(lo, 0), Z: 0},
				Max: geom.Vec3{X: 1, Y: minf(hi, 1), Z: 1},
			}
			sel := gather(index, pts, slab)

			var st stageTimes
			// Our pipeline: triangulation, then marching interpolation.
			t0 := time.Now()
			tri, terr := delaunay.New(sel)
			var field *dtfe.Field
			if terr == nil {
				field, terr = dtfe.NewField(tri, nil)
			}
			if terr != nil {
				return maxT, sumT, terr
			}
			st.tri = time.Since(t0).Seconds()
			spec := render.Spec{
				Min: geom.Vec2{X: 0, Y: float64(loRow) / float64(gridN)},
				Nx:  gridN, Ny: hiRow - loRow, Cell: 1.0 / float64(gridN),
				ZMin: 0, ZMax: 1, Nz: gridN,
			}
			t1 := time.Now()
			m := render.NewMarcher(field)
			if _, _, err := m.Render(spec, 1, render.ScheduleDynamic); err != nil {
				return maxT, sumT, err
			}
			st.interp = time.Since(t1).Seconds()

			// TESS/DENSE baseline: tessellation stage = exact Voronoi cell
			// volumes from the (already built) Delaunay dual, zero-order
			// densities m/V_vor, and the spatial index; DENSE = the
			// zero-order grid render.
			t2 := time.Now()
			vorDen, _, verr := dtfe.VoronoiDensities(tri, nil)
			if verr != nil {
				return maxT, sumT, verr
			}
			z := render.NewZeroOrder(sel, vorDen)
			st.tess = time.Since(t2).Seconds()
			t3 := time.Now()
			if _, _, err := z.Render(spec, 1); err != nil {
				return maxT, sumT, err
			}
			st.dense = time.Since(t3).Seconds()

			maxT.tri = maxf(maxT.tri, st.tri)
			maxT.interp = maxf(maxT.interp, st.interp)
			maxT.tess = maxf(maxT.tess, st.tess)
			maxT.dense = maxf(maxT.dense, st.dense)
			sumT.tri += st.tri
			sumT.interp += st.interp
			sumT.tess += st.tess
			sumT.dense += st.dense
		}
		return maxT, sumT, nil
	}

	var interpT, denseT, triT, tessT []float64
	r.Rowf("%-6s %14s %14s %14s %14s %10s", "procs", "Triangulation", "Interpolation", "TESS", "DENSE", "ours/base")
	for _, p := range procs {
		maxT, _, err := timesFor(p)
		if err != nil {
			return nil, err
		}
		triT = append(triT, maxT.tri)
		interpT = append(interpT, maxT.interp)
		tessT = append(tessT, maxT.tess)
		denseT = append(denseT, maxT.dense)
		ours := maxT.tri + maxT.interp
		base := maxT.tess + maxT.dense
		ratio := 0.0
		if ours > 0 {
			ratio = base / ours
		}
		r.Rowf("%-6d %13.3fs %13.3fs %13.3fs %13.3fs %9.2fx", p, maxT.tri, maxT.interp, maxT.tess, maxT.dense, ratio)
	}
	sInterp := stats.Speedup(procs, interpT)
	sDense := stats.Speedup(procs, denseT)
	sTri := stats.Speedup(procs, triT)
	sTess := stats.Speedup(procs, tessT)
	r.Rowf("%-6s %14s %14s %14s %14s", "procs", "S(tri)", "S(interp)", "S(tess)", "S(dense)")
	for i, p := range procs {
		r.Rowf("%-6d %14.2f %14.2f %14.2f %14.2f", p, sTri[i], sInterp[i], sTess[i], sDense[i])
	}
	r.Notef("paper: ~8x end-to-end improvement over TESS/DENSE at matched rank counts, both near-linear")
	r.Notef("dataset: %d clustered particles, %d^2 grid in row slabs", nPart, gridN)
	r.Elapsed = time.Since(start)
	return r, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
