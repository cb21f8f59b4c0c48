package experiments

import (
	"math"
	"math/rand"
	"time"

	"godtfe/internal/geom"
	"godtfe/internal/stats"
	"godtfe/internal/synth"
)

var fig13Procs = []int{4096, 6144, 8192, 12288, 14336, 16384}

// Fig13 reproduces the large-scale MiraU experiment (paper Fig 13):
// 233,230 halo-centered fields at 4k–16k ranks. The paper sees near-linear
// speedup until 16,384 ranks, where a few degenerate point configurations
// make the model-predicted execution times so wrong that senders sit on
// their mispredicted items and delay shipping work to idle receivers —
// the work-sharing speedup drops. We reproduce that by injecting a small
// population of items whose actual cost exceeds their prediction ~12x.
func Fig13(opt Options) (*Report, error) {
	opt = opt.fill()
	start := time.Now()
	r := &Report{ID: "fig13", Title: "large scale: 233,230 fields at 4k-16k ranks (with degenerate items)"}

	study, err := miraStudy(opt)
	if err != nil {
		return nil, err
	}
	rows, err := study.run(fig13Procs, true)
	if err != nil {
		return nil, err
	}
	reportScaling(r, rows)

	// The work-sharing speedup: compare against the unbalanced makespan.
	unb, err := study.run(fig13Procs, false)
	if err != nil {
		return nil, err
	}
	r.Rowf("%-6s %16s %16s %12s", "procs", "unbalanced tot", "balanced tot", "LB speedup")
	for i := range rows {
		gain := 0.0
		if rows[i].Total > 0 {
			gain = unb[i].Total / rows[i].Total
		}
		r.Rowf("%-6d %15.2fs %15.2fs %11.2fx", rows[i].Procs, unb[i].Total, rows[i].Total, gain)
	}
	r.Notef("paper: ~3.6x work-sharing speedup, near-linear until 16,384 ranks where mispredicted degenerate items delay sends")
	nFields := len(study.Centers)
	r.Notef("%d fields, %d degenerate items (actual ~%gx predicted)", nFields, nFields/8192, 12.0)
	sum := stats.Summarize(float64s(study.Counts))
	r.Notef("item particle counts: mean=%.0f median=%.0f max=%.0f", sum.Mean, sum.Median, sum.Max)
	r.Elapsed = time.Since(start)
	return r, nil
}

// miraStudy builds Fig 13's items: 233,230 distinct objects over a
// (1.5 Gpc)³ volume, each priced from its environment's richness, a few
// of them degenerate, with costs from the real-kernel calibration.
func miraStudy(opt Options) (*scalingStudy, error) {
	box := geom.AABB{Min: geom.Vec3{}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	nFields := opt.scaled(233230)
	// The paper's fields sit on the 233,230 most massive FOF objects: each
	// is a *distinct* halo. Objects above a mass cut are mostly uniform
	// over a (1.5 Gpc)³ volume with modest supercluster correlations —
	// that is what keeps the paper's imbalance at the few-x level rather
	// than pathological — and their cube counts span factors of tens, not
	// thousands.
	hspec := synth.DefaultHaloSpec()
	hspec.NHalos = 256 // superclusters grouping the object centers
	hspec.HaloFrac = 0.25
	hspec.MassSlope = 3.0
	hspec.RScaleMin, hspec.RScaleMax = 0.02, 0.1
	centers := synth.HaloSet(nFields, box, hspec, opt.Seed+11)
	rng := rand.New(rand.NewSource(opt.Seed + 12))

	// Environment factor: object richness rises mildly with local center
	// density (the paper: "work items themselves are more costly" in
	// concentrated regions).
	const probe = 0.04
	const meanCount = 20000 // cluster-sized objects
	env := cubeCounts(centers, centers, probe)
	counts := make([]int, nFields)
	rel := make([]float64, nFields)
	var relSum float64
	for i := range centers {
		r := math.Pow(float64(env[i]+1), 0.3) * lognoise(rng, 0.5)
		rel[i] = r
		relSum += r
	}
	relMean := relSum / float64(nFields)
	for i := range counts {
		r := rel[i] / relMean
		if r < 0.15 {
			r = 0.15
		}
		if r > 8 {
			r = 8
		}
		counts[i] = int(meanCount * r)
	}
	cal, err := calibrate(opt, 64)
	if err != nil {
		return nil, err
	}
	return &scalingStudy{
		Box:             box,
		Centers:         centers,
		Counts:          counts,
		Cal:             cal,
		NoiseSigma:      0.2,
		DegenerateEvery: 8192, // a few dozen degenerate configurations
		DegenerateBlow:  12,
		TotalParticles:  32e9 * opt.Scale, // MiraU-scale IO volume
		IoPerPart:       2e-6,             // BG/Q-class parallel filesystem
		Seed:            opt.Seed + 13,
	}, nil
}

func float64s(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
