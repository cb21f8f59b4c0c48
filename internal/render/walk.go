package render

import (
	"godtfe/internal/delaunay"
	"godtfe/internal/dtfe"
	"godtfe/internal/geom"
	"godtfe/internal/grid"
	"godtfe/internal/kdtree"
)

// Walker is the DTFE-public-software baseline (paper Section III-C): it
// renders the 3D density on an Nx×Ny×Nz sample lattice by *walking* point
// location (each sample located starting from the previous sample's
// tetrahedron, the usual adjacent-cell seeding) and then integrates along
// z with fixed Δz (eq 4). Its cost is O(N_cell) point locations — the
// 3D-grid work the marching kernel avoids.
type Walker struct {
	F    *dtfe.Field
	grad []geom.Vec3 // F.Gradient of each finite tet: every sample interpolates
	// zlo/zhi default integration bounds (triangulation z extent).
	zlo, zhi float64
}

// NewWalker wraps a DTFE field for 3D-grid rendering.
func NewWalker(f *dtfe.Field) *Walker {
	b := geom.BoundsOf(f.Tri.Points())
	grad := make([]geom.Vec3, len(f.Tri.Tets()))
	f.Tri.ForEachFiniteTet(func(ti int32, _ *delaunay.Tet) { grad[ti] = f.Gradient(ti) })
	return &Walker{F: f, grad: grad, zlo: b.Min.Z, zhi: b.Max.Z}
}

// Render computes the projected (surface) density on the spec's 2D grid by
// sampling Nz points per column.
func (w *Walker) Render(spec Spec, workers int, sched Schedule) (*grid.Grid2D, []WorkerStat, error) {
	if err := spec.Validate(true); err != nil {
		return nil, nil, err
	}
	zmin, zmax := spec.ZMin, spec.ZMax
	if zmin >= zmax {
		zmin, zmax = w.zlo, w.zhi
	}
	out := spec.Grid()
	samples := spec.Samples
	if samples < 1 {
		samples = 1
	}
	stats := forEachRow(spec.Ny, workers, sched, func(wk, j int, st *WorkerStat) {
		seed := delaunay.NoTet
		rng := splitmix64(uint64(wk)+1) | 1 // private walk stream: no shared-state races
		for i := 0; i < spec.Nx; i++ {
			var acc float64
			for s := 0; s < samples; s++ {
				xi := out.Center(i, j)
				if samples > 1 {
					xi.X += (jitter(spec.Seed, i, j, s, 0) - 0.5) * spec.Cell
					xi.Y += (jitter(spec.Seed, i, j, s, 1) - 0.5) * spec.Cell
				}
				sigma, n, last, err := w.column(xi, zmin, zmax, spec.Nz, seed, &rng)
				seed = last
				acc += sigma
				st.Steps += int64(n)
				if err != nil {
					st.Columns.Note(ColumnAbandoned)
				} else {
					st.Columns.Note(ColumnClean)
				}
			}
			out.Set(i, j, acc/float64(samples))
			st.Cells++
		}
	})
	return out, stats, nil
}

// Column walks the Nz z-samples of one column, seeding each location from
// the previous one, and returns the accumulated surface density, the
// number of tetrahedra visited by the walks (the true work measure — it
// grows with local mesh density), and the last finite tet (a good seed for
// the next column). A non-nil error reports a failed point location
// (non-finite query or diverged walk); the returned Σ is then the partial
// sum up to the failing sample and the seed is NoTet.
func (w *Walker) Column(xi geom.Vec2, zmin, zmax float64, nz int, seed int32) (float64, int, int32, error) {
	return w.column(xi, zmin, zmax, nz, seed, nil)
}

// column is Column with an optional caller-owned walk rng (Render's
// per-worker stream). With rng == nil it draws from the triangulation's
// internal stream, which is fine single-threaded but races concurrently.
func (w *Walker) column(xi geom.Vec2, zmin, zmax float64, nz int, seed int32, rng *uint64) (float64, int, int32, error) {
	locate := func(start int32, p geom.Vec3) (int32, int, error) {
		if rng != nil {
			return w.F.Tri.LocateSeeded(start, p, rng)
		}
		return w.F.Tri.LocateFromCount(start, p)
	}
	dz := (zmax - zmin) / float64(nz)
	var sigma float64
	steps := 0
	cur := seed
	if cur == delaunay.NoTet {
		c, _, err := locate(delaunay.NoTet, geom.Vec3{X: xi.X, Y: xi.Y, Z: zmin}) // any start
		if err != nil {
			return 0, 0, delaunay.NoTet, err
		}
		cur = c
	}
	last := cur
	for k := 0; k < nz; k++ {
		p := geom.Vec3{X: xi.X, Y: xi.Y, Z: zmin + (float64(k)+0.5)*dz}
		ti, n, err := locate(cur, p)
		steps += n
		if err != nil {
			return sigma, steps, delaunay.NoTet, err
		}
		cur = ti
		if w.F.Tri.IsInfinite(ti) {
			continue // outside hull: zero density
		}
		last = ti
		v0 := w.F.Tri.Tets()[ti].V[0] // F.Interpolate, with the gradient from the table
		sigma += (w.F.Density[v0] + w.grad[ti].Dot(p.Sub(w.F.Tri.Points()[v0]))) * dz
	}
	return sigma, steps, last, nil
}

// ZeroOrder is the TESS/DENSE baseline: zero-order interpolation — the
// density at a sample is the density of the Voronoi cell containing it,
// i.e. of the nearest particle — summed over an Nx×Ny×Nz lattice. The
// kd-tree plays the role of the Voronoi tessellation (stage "TESS"); Render
// is the grid-estimation stage ("DENSE").
type ZeroOrder struct {
	Tree    *kdtree.Tree
	Density []float64 // per-particle density (e.g. dtfe.Field.Density)
	zlo     float64
	zhi     float64
}

// NewZeroOrder indexes the particles and their densities.
func NewZeroOrder(pts []geom.Vec3, density []float64) *ZeroOrder {
	b := geom.BoundsOf(pts)
	return &ZeroOrder{Tree: kdtree.New(pts), Density: density, zlo: b.Min.Z, zhi: b.Max.Z}
}

// Render computes the projected density with zero-order interpolation.
func (z *ZeroOrder) Render(spec Spec, workers int, sched Schedule) (*grid.Grid2D, []WorkerStat, error) {
	if err := spec.Validate(true); err != nil {
		return nil, nil, err
	}
	zmin, zmax := spec.ZMin, spec.ZMax
	if zmin >= zmax {
		zmin, zmax = z.zlo, z.zhi
	}
	dz := (zmax - zmin) / float64(spec.Nz)
	out := spec.Grid()
	samples := spec.Samples
	if samples < 1 {
		samples = 1
	}
	stats := forEachRow(spec.Ny, workers, sched, func(wk, j int, st *WorkerStat) {
		for i := 0; i < spec.Nx; i++ {
			var acc float64
			for s := 0; s < samples; s++ {
				xi := out.Center(i, j)
				if samples > 1 {
					xi.X += (jitter(spec.Seed, i, j, s, 0) - 0.5) * spec.Cell
					xi.Y += (jitter(spec.Seed, i, j, s, 1) - 0.5) * spec.Cell
				}
				var sigma float64
				for k := 0; k < spec.Nz; k++ {
					p := geom.Vec3{X: xi.X, Y: xi.Y, Z: zmin + (float64(k)+0.5)*dz}
					if n, _ := z.Tree.Nearest(p); n >= 0 {
						sigma += z.Density[n] * dz
					}
					st.Steps++
				}
				acc += sigma
			}
			out.Set(i, j, acc/float64(samples))
			st.Cells++
		}
	})
	return out, stats, nil
}
