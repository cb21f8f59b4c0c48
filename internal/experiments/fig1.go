package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"godtfe/internal/geom"
	"godtfe/internal/halo"
	"godtfe/internal/nbody"
	"godtfe/internal/pipeline"
	"godtfe/internal/render"
)

// Fig1 reproduces the paper's opening illustration: the DTFE surface
// density of the largest structural object in the final snapshot of an
// N-body simulation (their Fig 1: a 2048² grid of ~1.5M particles in a
// (4 Mpc/h)³ sub-volume of a 1-billion-particle run). Here the snapshot
// comes from the particle-mesh code evolved from Zel'dovich initial
// conditions, the object from the friends-of-friends finder, and the map
// from the marching kernel; the log-scaled image is written as a PGM
// artifact.
func Fig1(opt Options) (*Report, error) {
	opt = opt.fill()
	start := time.Now()
	r := &Report{ID: "fig1", Title: "surface density of the largest FOF object in a PM snapshot"}

	// Evolve a small cosmological box.
	np := 4 + opt.scaled(28) // particles per dimension: 32^3 at scale 1
	mesh := 32
	if np > 32 {
		mesh = 64
	}
	sim, err := nbody.New(nbody.Config{
		Mesh: mesh, Particles: np, Box: 1, Seed: opt.Seed + 31, Amplitude: 0.8,
	})
	if err != nil {
		return nil, err
	}
	if err := sim.Run(18, 0.08); err != nil {
		return nil, err
	}
	pts := sim.Pos

	// Largest FOF object (periodic box).
	box := geom.AABB{Min: geom.Vec3{}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	link := 0.2 * halo.MeanSeparation(pts)
	halos := halo.FindPeriodic(pts, box, link, 16)
	var center geom.Vec3
	var objN int
	if len(halos) > 0 {
		center = halos[0].Center
		objN = halos[0].N
	} else {
		// Fall back to the densest cube if structure has not formed.
		center = box.Center()
	}

	// Sub-volume cube around the object, 1/8 of the box across; at tiny
	// scales grow it until it holds enough particles to triangulate.
	side := 0.125
	index := pipeline.NewCellIndex(pts, side*0.75)
	var sel []geom.Vec3
	for {
		// The triangulation buffer reaches side/4 beyond the rendered region.
		sel = gather(index, pts, cube(center, side*0.75))
		if len(sel) >= 64 || side >= 0.6 {
			break
		}
		side *= 1.5
	}
	if len(sel) < 16 {
		return nil, fmt.Errorf("fig1: only %d particles near the object", len(sel))
	}
	field, err := pipeline.ItemField(sel)
	if err != nil {
		return nil, err
	}
	gridN := 64 + opt.scaled(448) // 512 at scale 1 (the paper used 2048)
	m := render.NewMarcher(field)
	g, stats, err := m.Render(pipeline.ItemSpec(center, side, gridN), 1, render.ScheduleDynamic)
	if err != nil {
		return nil, err
	}

	dir := opt.ArtifactDir
	if dir == "" {
		dir = "."
	}
	path := filepath.Join(dir, "fig1_surface_density.pgm")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := g.WritePGM(f, true); err != nil {
		return nil, err
	}

	lo, hi := g.MinMax()
	r.Rowf("snapshot: %d PM particles evolved 18 steps; %d FOF groups (link %.4f)", len(pts), len(halos), link)
	r.Rowf("largest object: %d members at (%.3f, %.3f, %.3f)", objN, center.X, center.Y, center.Z)
	r.Rowf("sub-volume: %d particles, %d tetrahedra", len(sel), field.Tri.NumFiniteTets())
	r.Rowf("map: %dx%d, sigma in [%.3g, %.3g], dynamic range %.1f dex", gridN, gridN, lo, hi, dexRange(lo, hi))
	r.Rowf("tetrahedra marched: %d", stats[0].Steps)
	r.Rowf("artifact: %s", path)
	r.Notef("paper Fig 1: 2048^2 grid of ~1.5M particles in a (4 Mpc/h)^3 sub-volume; this is the same pipeline end to end at reduced scale")
	r.Elapsed = time.Since(start)
	return r, nil
}

func dexRange(lo, hi float64) float64 {
	if lo <= 0 || hi <= 0 {
		return 0
	}
	return math.Log10(hi) - math.Log10(lo)
}
