package experiments

import (
	"math/rand"
	"time"

	"godtfe/internal/geom"
	"godtfe/internal/halo"
	"godtfe/internal/synth"
)

// galaxyGalaxyStudy builds the paper's galaxy-galaxy lensing configuration
// (Section V-3): 7,209 field centers placed at simulated galaxy positions
// — the densest particle regions, here drawn from FOF halo members
// weighted by halo mass — over a clustered box. Item counts come from real
// cube counts; costs from the real-kernel calibration.
func galaxyGalaxyStudy(opt Options, nFields int, fieldLen float64) (*scalingStudy, error) {
	box := geom.AABB{Min: geom.Vec3{}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	nPart := opt.scaled(150000)
	// A realistic mass function: many halos with a tame Pareto tail, so no
	// single object carries a macroscopic fraction of the box (a 256 Mpc/h
	// volume has thousands of groups, the largest holding ~1% of the
	// galaxies).
	hspec := synth.DefaultHaloSpec()
	hspec.NHalos = 1024
	hspec.MassSlope = 3.0
	hspec.HaloFrac = 0.5
	hspec.RScaleMin, hspec.RScaleMax = 0.005, 0.03
	pts := synth.HaloSet(nPart, box, hspec, opt.Seed+3)

	// "Galaxies": random members of the most massive FOF groups.
	link := 0.2 * halo.MeanSeparation(pts)
	halos := halo.Find(pts, link, 8)
	rng := rand.New(rand.NewSource(opt.Seed + 4))
	var centers []geom.Vec3
	if len(halos) > 0 {
		// Weight halos by membership: flatten member lists of the top
		// groups and sample.
		var pool []int32
		for _, h := range halos {
			pool = append(pool, h.Members...)
		}
		for len(centers) < nFields {
			centers = append(centers, pts[pool[rng.Intn(len(pool))]])
		}
	} else {
		centers = synth.Uniform(nFields, box, opt.Seed+5)
	}

	counts := cubeCounts(pts, centers, fieldLen*1.5)
	cal, err := calibrate(opt, 64)
	if err != nil {
		return nil, err
	}
	return &scalingStudy{
		Box:            box,
		Centers:        centers,
		Counts:         counts,
		Cal:            cal,
		NoiseSigma:     0.2,
		TotalParticles: float64(nPart),
		Seed:           opt.Seed + 6,
	}, nil
}

var fig9Procs = []int{8, 16, 32, 64, 128, 240}

// Fig9 reproduces the galaxy-galaxy lensing scaling experiment (paper Fig
// 9): 7,209 halo-centered fields, phase breakdown and speedup from 8 to
// 240 ranks with work sharing enabled. Expected shapes: near-linear total
// speedup until ~64 ranks; the partition phase flattens (IO bound) and the
// modeling phase flattens (one test problem per rank), dragging down the
// high-rank speedup.
func Fig9(opt Options) (*Report, error) {
	opt = opt.fill()
	start := time.Now()
	r := &Report{ID: "fig9", Title: "galaxy-galaxy lensing: 7,209 fields, phase times and speedup vs ranks"}
	study, err := galaxyGalaxyStudy(opt, opt.scaled(7209), 0.12)
	if err != nil {
		return nil, err
	}
	rows, err := study.run(fig9Procs, true)
	if err != nil {
		return nil, err
	}
	reportScaling(r, rows)
	r.Notef("paper: near-linear to 64 procs, then partition (IO-bound) and modeling (constant test problem) flatten; ~2.8x from work sharing at 240 procs")
	r.Notef("%d halo-member-centered fields; item costs calibrated from the real kernel (%d samples)",
		len(study.Centers), len(study.Cal.NS))
	r.Elapsed = time.Since(start)
	return r, nil
}

// Fig10 reproduces the workload-imbalance figure (paper Fig 10): the
// normalized standard deviation of per-rank compute time, model-predicted
// without sharing ("unbalanced") and achieved with sharing ("balanced"),
// growing as sub-volumes shrink.
func Fig10(opt Options) (*Report, error) {
	opt = opt.fill()
	start := time.Now()
	r := &Report{ID: "fig10", Title: "workload imbalance (normalized std of rank compute time) vs ranks"}
	study, err := galaxyGalaxyStudy(opt, opt.scaled(7209), 0.12)
	if err != nil {
		return nil, err
	}
	rows, err := study.run(fig9Procs, true)
	if err != nil {
		return nil, err
	}
	r.Rowf("%-6s %14s %14s", "procs", "unbalanced", "balanced")
	for _, row := range rows {
		r.Rowf("%-6d %14.3f %14.3f", row.Procs, row.UnbalancedStd, row.BalancedStd)
	}
	r.Notef("paper: unbalanced std grows as sub-volumes shrink (more ranks); balanced stays far lower")
	r.Elapsed = time.Since(start)
	return r, nil
}
