// Package dtfe implements the Delaunay Tessellation Field Estimator
// (Schaap & van de Weygaert): per-particle densities from the inverse
// volume of the contiguous Voronoi cell (paper eq 2) and first-order
// (linear) interpolation inside each Delaunay tetrahedron (paper eq 1).
package dtfe

import (
	"errors"

	"godtfe/internal/delaunay"
	"godtfe/internal/geom"
)

// Field is a DTFE density field: a Delaunay triangulation plus per-vertex
// density estimates. It holds nothing per tet: Gradient solves a tet's on
// demand, and the kernels that need them all keep their own table.
type Field struct {
	Tri *delaunay.Triangulation

	// Density[v] is the estimated density at vertex v:
	// (d+1) m_v / Σ V(T_j,v) with d = 3.
	Density []float64

	// Hull[v] marks vertices on the convex hull, whose contiguous Voronoi
	// cells are unbounded; their densities are only meaningful when the
	// vertex lies in a ghost zone.
	Hull []bool
}

// NewField estimates densities on tri's vertices. masses may be nil
// (uniform unit mass) or hold one mass per input point. Duplicate points
// contribute their mass to their canonical vertex.
func NewField(tri *delaunay.Triangulation, masses []float64) (*Field, error) {
	n := tri.NumPoints()
	if masses != nil && len(masses) != n {
		return nil, errors.New("dtfe: masses length mismatch")
	}
	vol, hull := tri.VertexVolumes()

	mass := make([]float64, n)
	for i := 0; i < n; i++ {
		m := 1.0
		if masses != nil {
			m = masses[i]
		}
		mass[tri.DuplicateOf(i)] += m
	}

	density := make([]float64, n)
	for v := 0; v < n; v++ {
		c := tri.DuplicateOf(v)
		if v != c {
			continue // filled from canonical below
		}
		if vol[v] > 0 {
			density[v] = 4 * mass[v] / vol[v] // (d+1) = 4 in 3D
		}
	}
	for v := 0; v < n; v++ {
		if c := tri.DuplicateOf(v); c != v {
			density[v] = density[c]
		}
	}

	return &Field{Tri: tri, Density: density, Hull: hull}, nil
}

// SetValues replaces the per-vertex field values, and with them every
// tet's gradient. This turns the Field into a generic DTFE interpolator
// for any point-sampled quantity (the estimator was originally proposed
// for volume-weighted velocity fields).
func (f *Field) SetValues(values []float64) error {
	if len(values) != f.Tri.NumPoints() {
		return errors.New("dtfe: values length mismatch")
	}
	f.Density = values
	return nil
}

// Gradient is TetGradient of finite tet ti's vertices and densities.
func (f *Field) Gradient(ti int32) geom.Vec3 {
	v := &f.Tri.Tets()[ti].V
	pts, d := f.Tri.Points(), f.Density
	return TetGradient(pts[v[0]], pts[v[1]], pts[v[2]], pts[v[3]], d[v[0]], d[v[1]], d[v[2]], d[v[3]])
}

// TetGradient solves, for a tet with vertices x0..x3 in slot order and
// vertex values d0..d3, the 3x3 system (xi - x0)·∇ρ = di - d0 (i = 1..3)
// and returns ∇ρ, zero when it is singular: the one expression every
// per-tet gradient is built by, from a Field or from a slab of one.
func TetGradient(x0, x1, x2, x3 geom.Vec3, d0, d1, d2, d3 float64) geom.Vec3 {
	rhs := geom.Vec3{X: d1 - d0, Y: d2 - d0, Z: d3 - d0}
	g, _ := geom.Solve3(x1.Sub(x0), x2.Sub(x0), x3.Sub(x0), rhs) // zero when singular
	return g
}

// Interpolate evaluates the linear density model of finite tet ti at point
// p (paper eq 1). p need not lie inside the tet; callers are responsible
// for using the containing tet when physical values are wanted.
func (f *Field) Interpolate(ti int32, p geom.Vec3) float64 {
	tet := &f.Tri.Tets()[ti]
	x0 := f.Tri.Points()[tet.V[0]]
	return f.Density[tet.V[0]] + f.Gradient(ti).Dot(p.Sub(x0))
}

// At locates p and returns the interpolated density. ok is false when p is
// outside the convex hull (density 0). A non-nil error reports a failed
// point location: a non-finite query (geomerr.ErrDegenerateInput) or a
// diverged walk on a corrupted mesh (geomerr.ErrLocateDiverged).
func (f *Field) At(p geom.Vec3) (rho float64, ok bool, err error) {
	ti, err := f.Tri.Locate(p)
	if err != nil {
		return 0, false, err
	}
	if f.Tri.IsInfinite(ti) {
		return 0, false, nil
	}
	return f.Interpolate(ti, p), true, nil
}

// VoronoiDensities estimates zero-order (TESS-style) densities: mass
// divided by the exact Voronoi cell volume. Vertices with unbounded cells
// (hull vertices) fall back to the DTFE contiguous-cell estimate so that
// downstream consumers always see a usable value; the bounded flags are
// returned for callers that care.
func VoronoiDensities(tri *delaunay.Triangulation, masses []float64) (density []float64, bounded []bool, err error) {
	n := tri.NumPoints()
	if masses != nil && len(masses) != n {
		return nil, nil, errors.New("dtfe: masses length mismatch")
	}
	vvol, bounded := tri.VoronoiVolumes()
	cvol, _ := tri.VertexVolumes()

	mass := make([]float64, n)
	for i := 0; i < n; i++ {
		m := 1.0
		if masses != nil {
			m = masses[i]
		}
		mass[tri.DuplicateOf(i)] += m
	}
	density = make([]float64, n)
	for v := 0; v < n; v++ {
		c := tri.DuplicateOf(v)
		if c != v {
			continue
		}
		switch {
		case bounded[v] && vvol[v] > 0:
			density[v] = mass[v] / vvol[v]
		case cvol[v] > 0:
			density[v] = 4 * mass[v] / cvol[v]
		}
	}
	for v := 0; v < n; v++ {
		if c := tri.DuplicateOf(v); c != v {
			density[v] = density[c]
		}
	}
	return density, bounded, nil
}

// TotalMass integrates the piecewise-linear density over the convex hull:
// for each tet the integral is V·(ρ0+ρ1+ρ2+ρ3)/4. For interior-dominated
// triangulations this telescopes back to the total input mass (exact mass
// conservation of the DTFE estimator).
func (f *Field) TotalMass() float64 {
	var m float64
	f.Tri.ForEachFiniteTet(func(ti int32, tet *delaunay.Tet) {
		v := f.Tri.TetVolume(ti)
		s := f.Density[tet.V[0]] + f.Density[tet.V[1]] + f.Density[tet.V[2]] + f.Density[tet.V[3]]
		m += v * s / 4
	})
	return m
}
