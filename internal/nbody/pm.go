// Package nbody is a particle-mesh (PM) gravity code: cloud-in-cell mass
// deposit, FFT Poisson solve on a periodic cubic mesh, spectral force
// gradient, and leapfrog (kick-drift-kick) time stepping, seeded with
// Zel'dovich-approximation initial conditions from a Gaussian random field
// with a power-law spectrum.
//
// It is the substrate standing in for HACC in the paper's experiments: a
// few dozen PM steps evolve near-uniform initial conditions into the
// filament/halo structure whose particle-count imbalance the load-balancing
// experiments depend on.
package nbody

import (
	"errors"
	"math"
	"math/rand"

	"godtfe/internal/fft"
	"godtfe/internal/geom"
)

// Sim is a periodic-box PM simulation.
type Sim struct {
	// Mesh is the PM mesh resolution per dimension (power of two).
	Mesh int
	// Box is the periodic box edge length.
	Box float64
	// G is the gravitational constant in sim units.
	G float64
	// Softening suppresses forces below ~Softening*cell to avoid
	// two-particle scattering artifacts (implemented as a k-space
	// Gaussian cutoff).
	Softening float64

	Pos []geom.Vec3
	Vel []geom.Vec3

	rho []complex128 // scratch density / potential mesh
	fx  []complex128
	fy  []complex128
	fz  []complex128
}

// spectralIndex is n of the initial conditions' P(k) ∝ k^n.
const spectralIndex = -1

// Config configures New.
type Config struct {
	Mesh      int     // mesh cells per dimension (power of two)
	Particles int     // particles per dimension (particle count = Particles³)
	Box       float64 // box edge length
	Amplitude float64 // initial displacement amplitude in cells (default 1)
	Seed      int64
}

// New builds a simulation with Zel'dovich initial conditions: particles on
// a lattice displaced by ψ = ∇∇⁻²δ for a Gaussian random field δ with
// P(k) ∝ k^spectralIndex, with velocities proportional to the displacement
// (growing mode).
func New(cfg Config) (*Sim, error) {
	if !fft.IsPow2(cfg.Mesh) {
		return nil, errors.New("nbody: mesh must be a power of two")
	}
	if cfg.Particles <= 0 || cfg.Box <= 0 {
		return nil, errors.New("nbody: particles and box must be positive")
	}
	if cfg.Amplitude == 0 {
		cfg.Amplitude = 1
	}
	m := cfg.Mesh
	s := &Sim{
		Mesh:      m,
		Box:       cfg.Box,
		G:         1,
		Softening: 1,
		rho:       make([]complex128, m*m*m),
		fx:        make([]complex128, m*m*m),
		fy:        make([]complex128, m*m*m),
		fz:        make([]complex128, m*m*m),
	}

	// Gaussian random field δ_k: white noise in real space, FFT, shape by
	// sqrt(P(k)). This guarantees the Hermitian symmetry a real field
	// needs.
	rng := rand.New(rand.NewSource(cfg.Seed))
	delta := make([]complex128, m*m*m)
	for i := range delta {
		delta[i] = complex(rng.NormFloat64(), 0)
	}
	if err := fft.FFT3D(delta, m, m, m, false); err != nil {
		return nil, err
	}
	d := cfg.Box / float64(m)
	for z := 0; z < m; z++ {
		kz := fft.Wavenumber(z, m, d)
		for y := 0; y < m; y++ {
			ky := fft.Wavenumber(y, m, d)
			for x := 0; x < m; x++ {
				kx := fft.Wavenumber(x, m, d)
				k2 := kx*kx + ky*ky + kz*kz
				idx := (z*m+y)*m + x
				if k2 == 0 {
					delta[idx] = 0
					continue
				}
				p := math.Pow(math.Sqrt(k2), spectralIndex)
				delta[idx] *= complex(math.Sqrt(p), 0)
			}
		}
	}
	// Displacement field ψ_k = i k δ_k / k² (three inverse transforms).
	psi := [3][]complex128{
		make([]complex128, m*m*m),
		make([]complex128, m*m*m),
		make([]complex128, m*m*m),
	}
	for z := 0; z < m; z++ {
		kz := fft.Wavenumber(z, m, d)
		for y := 0; y < m; y++ {
			ky := fft.Wavenumber(y, m, d)
			for x := 0; x < m; x++ {
				kx := fft.Wavenumber(x, m, d)
				k2 := kx*kx + ky*ky + kz*kz
				idx := (z*m+y)*m + x
				if k2 == 0 {
					continue
				}
				dk := delta[idx] / complex(k2, 0)
				psi[0][idx] = complex(0, kx) * dk
				psi[1][idx] = complex(0, ky) * dk
				psi[2][idx] = complex(0, kz) * dk
			}
		}
	}
	for c := 0; c < 3; c++ {
		if err := fft.FFT3D(psi[c], m, m, m, true); err != nil {
			return nil, err
		}
	}
	// Normalize displacements to the requested amplitude (in cells).
	var rms float64
	for i := range psi[0] {
		rms += real(psi[0][i])*real(psi[0][i]) + real(psi[1][i])*real(psi[1][i]) + real(psi[2][i])*real(psi[2][i])
	}
	rms = math.Sqrt(rms / float64(3*len(psi[0])))
	scale := 1.0
	if rms > 0 {
		scale = cfg.Amplitude * d / rms
	}

	// Lattice + interpolated displacement.
	np := cfg.Particles
	s.Pos = make([]geom.Vec3, 0, np*np*np)
	s.Vel = make([]geom.Vec3, 0, np*np*np)
	for iz := 0; iz < np; iz++ {
		for iy := 0; iy < np; iy++ {
			for ix := 0; ix < np; ix++ {
				q := geom.Vec3{
					X: (float64(ix) + 0.5) * cfg.Box / float64(np),
					Y: (float64(iy) + 0.5) * cfg.Box / float64(np),
					Z: (float64(iz) + 0.5) * cfg.Box / float64(np),
				}
				disp := geom.Vec3{
					X: s.sampleMesh(psi[0], q) * scale,
					Y: s.sampleMesh(psi[1], q) * scale,
					Z: s.sampleMesh(psi[2], q) * scale,
				}
				s.Pos = append(s.Pos, s.wrap(q.Add(disp)))
				s.Vel = append(s.Vel, disp.Scale(0.5)) // growing-mode-ish
			}
		}
	}
	return s, nil
}

func (s *Sim) wrap(p geom.Vec3) geom.Vec3 {
	w := func(v float64) float64 {
		v = math.Mod(v, s.Box)
		if v < 0 {
			v += s.Box
		}
		return v
	}
	return geom.Vec3{X: w(p.X), Y: w(p.Y), Z: w(p.Z)}
}

// sampleMesh trilinearly samples the real part of mesh at physical point
// p (periodic).
func (s *Sim) sampleMesh(mesh []complex128, p geom.Vec3) float64 {
	m := s.Mesh
	d := s.Box / float64(m)
	fx := p.X/d - 0.5
	fy := p.Y/d - 0.5
	fz := p.Z/d - 0.5
	ix, wx := floorW(fx)
	iy, wy := floorW(fy)
	iz, wz := floorW(fz)
	var out float64
	for dz := 0; dz < 2; dz++ {
		for dy := 0; dy < 2; dy++ {
			for dx := 0; dx < 2; dx++ {
				w := pick(wx, dx) * pick(wy, dy) * pick(wz, dz)
				idx := (mod(iz+dz, m)*m+mod(iy+dy, m))*m + mod(ix+dx, m)
				out += w * real(mesh[idx])
			}
		}
	}
	return out
}

func floorW(f float64) (int, float64) {
	i := int(math.Floor(f))
	return i, f - float64(i)
}

func pick(w float64, d int) float64 {
	if d == 0 {
		return 1 - w
	}
	return w
}

func mod(i, m int) int {
	i %= m
	if i < 0 {
		i += m
	}
	return i
}

// Step advances the simulation by dt with kick-drift-kick leapfrog.
func (s *Sim) Step(dt float64) error {
	acc, err := s.Accelerations()
	if err != nil {
		return err
	}
	for i := range s.Pos {
		s.Vel[i] = s.Vel[i].Add(acc[i].Scale(dt / 2))
		s.Pos[i] = s.wrap(s.Pos[i].Add(s.Vel[i].Scale(dt)))
	}
	acc, err = s.Accelerations()
	if err != nil {
		return err
	}
	for i := range s.Vel {
		s.Vel[i] = s.Vel[i].Add(acc[i].Scale(dt / 2))
	}
	return nil
}

// Run performs n steps of size dt.
func (s *Sim) Run(n int, dt float64) error {
	for i := 0; i < n; i++ {
		if err := s.Step(dt); err != nil {
			return err
		}
	}
	return nil
}

// Accelerations computes the PM gravitational acceleration at every
// particle: CIC deposit → k-space Poisson (with Gaussian softening) →
// spectral gradient → CIC gather.
func (s *Sim) Accelerations() ([]geom.Vec3, error) {
	m := s.Mesh
	d := s.Box / float64(m)
	cellVol := d * d * d

	for i := range s.rho {
		s.rho[i] = 0
	}
	// CIC deposit normalized to unit MEAN density (particle mass = V/N),
	// so the dynamical time ~ 1/sqrt(4πG) is O(0.3) with G = 1 regardless
	// of particle count and Step's dt has a stable meaning.
	pmass := s.Box * s.Box * s.Box / float64(len(s.Pos))
	for _, p := range s.Pos {
		fx := p.X/d - 0.5
		fy := p.Y/d - 0.5
		fz := p.Z/d - 0.5
		ix, wx := floorW(fx)
		iy, wy := floorW(fy)
		iz, wz := floorW(fz)
		for dz := 0; dz < 2; dz++ {
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					w := pick(wx, dx) * pick(wy, dy) * pick(wz, dz)
					idx := (mod(iz+dz, m)*m+mod(iy+dy, m))*m + mod(ix+dx, m)
					s.rho[idx] += complex(w*pmass/cellVol, 0)
				}
			}
		}
	}
	if err := fft.FFT3D(s.rho, m, m, m, false); err != nil {
		return nil, err
	}
	// φ_k = -4πG ρ_k / k², softened; f_k = -i k φ_k.
	soft := s.Softening * d
	for z := 0; z < m; z++ {
		kz := fft.Wavenumber(z, m, d)
		for y := 0; y < m; y++ {
			ky := fft.Wavenumber(y, m, d)
			for x := 0; x < m; x++ {
				kx := fft.Wavenumber(x, m, d)
				k2 := kx*kx + ky*ky + kz*kz
				idx := (z*m+y)*m + x
				if k2 == 0 {
					s.fx[idx], s.fy[idx], s.fz[idx] = 0, 0, 0
					continue
				}
				damp := math.Exp(-k2 * soft * soft)
				phi := s.rho[idx] * complex(-4*math.Pi*s.G*damp/k2, 0)
				s.fx[idx] = complex(0, -kx) * phi
				s.fy[idx] = complex(0, -ky) * phi
				s.fz[idx] = complex(0, -kz) * phi
			}
		}
	}
	if err := fft.FFT3D(s.fx, m, m, m, true); err != nil {
		return nil, err
	}
	if err := fft.FFT3D(s.fy, m, m, m, true); err != nil {
		return nil, err
	}
	if err := fft.FFT3D(s.fz, m, m, m, true); err != nil {
		return nil, err
	}
	acc := make([]geom.Vec3, len(s.Pos))
	for i, p := range s.Pos {
		acc[i] = geom.Vec3{
			X: s.sampleMesh(s.fx, p),
			Y: s.sampleMesh(s.fy, p),
			Z: s.sampleMesh(s.fz, p),
		}
	}
	return acc, nil
}

// Momentum returns the total momentum vector (unit masses).
func (s *Sim) Momentum() geom.Vec3 {
	var p geom.Vec3
	for _, v := range s.Vel {
		p = p.Add(v)
	}
	return p
}
