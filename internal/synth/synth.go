// Package synth generates the synthetic tracer datasets and field-center
// configurations that stand in for the paper's proprietary HACC N-body
// snapshots (Planck 1024³, MiraU 3200³) and Gadget demo data. What the
// experiments actually depend on is the *clustering* of the tracers — it
// drives both the particle imbalance across sub-volumes and the
// heavy-tailed per-field costs — so the generators here are parameterized
// by clustering strength:
//
//   - Uniform: Poisson points (homogeneous control).
//   - HaloSet: NFW-like and Plummer halo superpositions on a uniform
//     background (strong small-scale clustering, like late-time snapshots).
//   - SoneiraPeebles: the classic hierarchical fractal clustering model.
//
// Field-center configurations mirror the paper's two experiments:
// HaloCenters (galaxy-galaxy lensing: fields at the densest locations) and
// LineOfSightStacks (multiplane lensing: fields stacked along z).
package synth

import (
	"math"
	"math/rand"

	"godtfe/internal/geom"
)

// Uniform returns n points uniformly distributed in box; nil for n <= 0.
func Uniform(n int, box geom.AABB, seed int64) []geom.Vec3 {
	if n <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	sz := box.Size()
	pts := make([]geom.Vec3, n)
	for i := range pts {
		pts[i] = geom.Vec3{
			X: box.Min.X + rng.Float64()*sz.X,
			Y: box.Min.Y + rng.Float64()*sz.Y,
			Z: box.Min.Z + rng.Float64()*sz.Z,
		}
	}
	return pts
}

// HaloSpec configures HaloSet.
type HaloSpec struct {
	NHalos      int     // number of halos
	HaloFrac    float64 // fraction of particles in halos (rest uniform)
	RScaleMin   float64 // minimum halo scale radius (box units)
	RScaleMax   float64 // maximum halo scale radius
	MassSlope   float64 // halo occupation ~ pareto(slope); 1.5-2.5 typical
	Concentrate float64 // NFW-ish concentration (larger = cuspier), ~5-20
}

// DefaultHaloSpec returns parameters that produce clustering qualitatively
// like a late-time cosmological snapshot.
func DefaultHaloSpec() HaloSpec {
	return HaloSpec{
		NHalos:      48,
		HaloFrac:    0.65,
		RScaleMin:   0.01,
		RScaleMax:   0.05,
		MassSlope:   1.8,
		Concentrate: 8,
	}
}

// HaloSet distributes n points over randomly placed halos with an NFW-like
// radial profile plus a uniform background; nil for n <= 0.
func HaloSet(n int, box geom.AABB, spec HaloSpec, seed int64) []geom.Vec3 {
	if n <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	sz := box.Size()
	type halo struct {
		c geom.Vec3
		r float64
		w float64
	}
	halos := make([]halo, spec.NHalos)
	var wsum float64
	for i := range halos {
		// Pareto-distributed halo weights: a few dominate, like a mass
		// function.
		w := math.Pow(rng.Float64(), -1/spec.MassSlope)
		halos[i] = halo{
			c: geom.Vec3{
				X: box.Min.X + rng.Float64()*sz.X,
				Y: box.Min.Y + rng.Float64()*sz.Y,
				Z: box.Min.Z + rng.Float64()*sz.Z,
			},
			r: spec.RScaleMin + rng.Float64()*(spec.RScaleMax-spec.RScaleMin),
			w: w,
		}
		wsum += w
	}
	cum := make([]float64, len(halos))
	acc := 0.0
	for i, h := range halos {
		acc += h.w / wsum
		cum[i] = acc
	}

	pts := make([]geom.Vec3, 0, n)
	for len(pts) < n {
		if rng.Float64() >= spec.HaloFrac {
			pts = append(pts, geom.Vec3{
				X: box.Min.X + rng.Float64()*sz.X,
				Y: box.Min.Y + rng.Float64()*sz.Y,
				Z: box.Min.Z + rng.Float64()*sz.Z,
			})
			continue
		}
		// Pick a halo by weight.
		u := rng.Float64()
		hi := 0
		for hi < len(cum)-1 && cum[hi] < u {
			hi++
		}
		h := halos[hi]
		// NFW-like radius: r = rs * (u^-1/c - ... ) approximated by
		// drawing from ρ ∝ 1/(x(1+x)^2) via rejection on x in (0, c].
		var x float64
		for {
			x = rng.Float64() * spec.Concentrate
			if x == 0 {
				continue
			}
			// density ∝ x^2 / (x (1+x)^2) = x/(1+x)^2, max at x=1 (value 1/4)
			if rng.Float64()*0.25 <= x/math.Pow(1+x, 2) {
				break
			}
		}
		r := h.r * x
		// Isotropic direction.
		var d geom.Vec3
		for {
			d = geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
			if d.Norm() > 1e-12 {
				break
			}
		}
		p := h.c.Add(d.Scale(r / d.Norm()))
		p = wrapInto(p, box)
		pts = append(pts, p)
	}
	return pts
}

// wrapInto periodically wraps p into box.
func wrapInto(p geom.Vec3, box geom.AABB) geom.Vec3 {
	sz := box.Size()
	wrap := func(v, lo, s float64) float64 {
		v = math.Mod(v-lo, s)
		if v < 0 {
			v += s
		}
		return lo + v
	}
	return geom.Vec3{
		X: wrap(p.X, box.Min.X, sz.X),
		Y: wrap(p.Y, box.Min.Y, sz.Y),
		Z: wrap(p.Z, box.Min.Z, sz.Z),
	}
}

// SoneiraPeebles generates the hierarchical clustering model: eta centers
// per level, each level's placement radius shrinking by 1/lambda, for
// `levels` levels; the leaves of the recursion are the points.
func SoneiraPeebles(levels, eta int, lambda float64, box geom.AABB, seed int64) []geom.Vec3 {
	rng := rand.New(rand.NewSource(seed))
	sz := box.Size()
	r0 := math.Min(sz.X, math.Min(sz.Y, sz.Z)) / 4
	var pts []geom.Vec3
	var descend func(c geom.Vec3, r float64, level int)
	descend = func(c geom.Vec3, r float64, level int) {
		if level == 0 {
			pts = append(pts, wrapInto(c, box))
			return
		}
		for i := 0; i < eta; i++ {
			var d geom.Vec3
			for {
				d = geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
				if d.Norm() > 1e-12 {
					break
				}
			}
			child := c.Add(d.Scale(r * rng.Float64() / d.Norm()))
			descend(child, r/lambda, level-1)
		}
	}
	// A few top-level clusters cover the box.
	for i := 0; i < 4; i++ {
		c := geom.Vec3{
			X: box.Min.X + rng.Float64()*sz.X,
			Y: box.Min.Y + rng.Float64()*sz.Y,
			Z: box.Min.Z + rng.Float64()*sz.Z,
		}
		descend(c, r0, levels)
	}
	return pts
}

// LineOfSightStacks builds the multiplane configuration (paper Section
// V-3): nLOS random sky positions, each with one field center per lens
// plane stacked along z. It returns all centers, grouped stack-major.
func LineOfSightStacks(nLOS, planes int, box geom.AABB, seed int64) []geom.Vec3 {
	rng := rand.New(rand.NewSource(seed))
	sz := box.Size()
	centers := make([]geom.Vec3, 0, nLOS*planes)
	for l := 0; l < nLOS; l++ {
		x := box.Min.X + rng.Float64()*sz.X
		y := box.Min.Y + rng.Float64()*sz.Y
		for p := 0; p < planes; p++ {
			z := box.Min.Z + (float64(p)+0.5)*sz.Z/float64(planes)
			centers = append(centers, geom.Vec3{X: x, Y: y, Z: z})
		}
	}
	return centers
}
