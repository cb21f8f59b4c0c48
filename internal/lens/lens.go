// Package lens implements the gravitational-lensing analysis the paper's
// surface-density fields feed (its motivating application): convergence
// maps under the thin-lens approximation, the FFT solution of the lens
// equation ∇²ψ = 2κ for the deflection field α = ∇ψ, and multiplane ray
// shooting through a stack of lens planes (the paper's "multiplane lensing
// experiment" configuration).
package lens

import (
	"errors"
	"math"

	"godtfe/internal/fft"
	"godtfe/internal/geom"
	"godtfe/internal/grid"
)

// Convergence scales a surface-density map by 1/Σ_crit: κ = Σ/Σ_crit.
func Convergence(sigma *grid.Grid2D, sigmaCrit float64) (*grid.Grid2D, error) {
	if sigmaCrit <= 0 {
		return nil, errors.New("lens: sigmaCrit must be positive")
	}
	out := sigma.Clone()
	inv := 1 / sigmaCrit
	for i := range out.Data {
		out.Data[i] *= inv
	}
	return out, nil
}

// Deflection returns the deflection field α = ∇ψ for ∇²ψ = 2κ, computed
// spectrally (α_k = i k ψ_k).
func Deflection(kappa *grid.Grid2D) (ax, ay *grid.Grid2D, err error) {
	nx, ny := kappa.Nx, kappa.Ny
	if !fft.IsPow2(nx) || !fft.IsPow2(ny) {
		return nil, nil, errors.New("lens: grid dimensions must be powers of two")
	}
	a := make([]complex128, nx*ny)
	for i, v := range kappa.Data {
		a[i] = complex(v, 0)
	}
	if err := fft.FFT2D(a, nx, ny, false); err != nil {
		return nil, nil, err
	}
	gx := make([]complex128, nx*ny)
	gy := make([]complex128, nx*ny)
	d := kappa.Cell
	for y := 0; y < ny; y++ {
		ky := fft.Wavenumber(y, ny, d)
		for x := 0; x < nx; x++ {
			kx := fft.Wavenumber(x, nx, d)
			k2 := kx*kx + ky*ky
			idx := y*nx + x
			if k2 == 0 {
				continue
			}
			psi := a[idx] * complex(-2/k2, 0)
			gx[idx] = complex(0, kx) * psi
			gy[idx] = complex(0, ky) * psi
		}
	}
	if err := fft.FFT2D(gx, nx, ny, true); err != nil {
		return nil, nil, err
	}
	if err := fft.FFT2D(gy, nx, ny, true); err != nil {
		return nil, nil, err
	}
	ax = grid.NewGrid2D(nx, ny, kappa.Min, kappa.Cell)
	ay = grid.NewGrid2D(nx, ny, kappa.Min, kappa.Cell)
	for i := range ax.Data {
		ax.Data[i] = real(gx[i])
		ay.Data[i] = real(gy[i])
	}
	return ax, ay, nil
}

// Plane is one lens plane of a multiplane system.
type Plane struct {
	Ax, Ay *grid.Grid2D
	// Weight is the lensing-efficiency weight of this plane (distance
	// ratios in a full cosmological treatment).
	Weight float64
}

// NewPlane builds a lens plane from a convergence map.
func NewPlane(kappa *grid.Grid2D, weight float64) (Plane, error) {
	ax, ay, err := Deflection(kappa)
	if err != nil {
		return Plane{}, err
	}
	return Plane{Ax: ax, Ay: ay, Weight: weight}, nil
}

// sample bilinearly interpolates g at physical point p (clamped to the
// grid).
func sample(g *grid.Grid2D, p geom.Vec2) float64 {
	fx := (p.X-g.Min.X)/g.Cell - 0.5
	fy := (p.Y-g.Min.Y)/g.Cell - 0.5
	i0 := int(math.Floor(fx))
	j0 := int(math.Floor(fy))
	wx := fx - float64(i0)
	wy := fy - float64(j0)
	cl := func(v, hi int) int {
		if v < 0 {
			return 0
		}
		if v > hi {
			return hi
		}
		return v
	}
	i1 := cl(i0+1, g.Nx-1)
	j1 := cl(j0+1, g.Ny-1)
	i0 = cl(i0, g.Nx-1)
	j0 = cl(j0, g.Ny-1)
	return g.At(i0, j0)*(1-wx)*(1-wy) + g.At(i1, j0)*wx*(1-wy) +
		g.At(i0, j1)*(1-wx)*wy + g.At(i1, j1)*wx*wy
}

// Shoot traces a ray at image-plane position theta through the plane
// stack and returns the source-plane position:
// β = θ - Σ_i w_i α_i(x_i), with x_i the ray position at plane i under
// the cumulative deflection (the standard multiplane recurrence in its
// Born-improved form).
func Shoot(planes []Plane, theta geom.Vec2) geom.Vec2 {
	pos := theta
	var defl geom.Vec2
	for _, p := range planes {
		pos = theta.Sub(defl)
		a := geom.Vec2{X: sample(p.Ax, pos), Y: sample(p.Ay, pos)}
		defl = defl.Add(a.Scale(p.Weight))
	}
	return theta.Sub(defl)
}

// ShootGrid maps a whole image-plane grid to source positions, returning
// the two coordinate maps.
func ShootGrid(planes []Plane, spec *grid.Grid2D) (bx, by *grid.Grid2D) {
	bx = grid.NewGrid2D(spec.Nx, spec.Ny, spec.Min, spec.Cell)
	by = grid.NewGrid2D(spec.Nx, spec.Ny, spec.Min, spec.Cell)
	for j := 0; j < spec.Ny; j++ {
		for i := 0; i < spec.Nx; i++ {
			b := Shoot(planes, spec.Center(i, j))
			bx.Set(i, j, b.X)
			by.Set(i, j, b.Y)
		}
	}
	return
}

// Magnification estimates the inverse magnification determinant
// det(∂β/∂θ) at each cell by central differences of the shot grid.
func Magnification(bx, by *grid.Grid2D) *grid.Grid2D {
	out := grid.NewGrid2D(bx.Nx, bx.Ny, bx.Min, bx.Cell)
	h := 2 * bx.Cell
	for j := 1; j < bx.Ny-1; j++ {
		for i := 1; i < bx.Nx-1; i++ {
			dbxdx := (bx.At(i+1, j) - bx.At(i-1, j)) / h
			dbxdy := (bx.At(i, j+1) - bx.At(i, j-1)) / h
			dbydx := (by.At(i+1, j) - by.At(i-1, j)) / h
			dbydy := (by.At(i, j+1) - by.At(i, j-1)) / h
			out.Set(i, j, dbxdx*dbydy-dbxdy*dbydx)
		}
	}
	return out
}

// CriticalCurves extracts the lens-plane critical curves — where the
// inverse magnification det(∂β/∂θ) vanishes and images are formally
// infinitely magnified — as contour segments of the shot-grid Jacobian.
func CriticalCurves(bx, by *grid.Grid2D) []grid.Segment {
	return Magnification(bx, by).ContourLines(0)
}
