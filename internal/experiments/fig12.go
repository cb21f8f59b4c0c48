package experiments

import (
	"time"

	"godtfe/internal/geom"
	"godtfe/internal/synth"
)

var fig12Procs = []int{8, 16, 32, 64, 128, 220}

// fig12Planes is the number of lens planes along each line of sight:
// 700*13 = 9100 ≈ the paper's 9,061.
const fig12Planes = 13

// Fig12 reproduces the multiplane lensing scaling experiment (paper Fig
// 12): 700 line-of-sight stacks × ~13 planes ≈ 9,061 fields mixing high-
// and low-density sub-volumes. The paper observes better overall
// scalability than the galaxy-galaxy configuration: more small work items
// give the variable-bin-size packing more freedom, so work sharing wastes
// less time blocked on sends.
func Fig12(opt Options) (*Report, error) {
	opt = opt.fill()
	start := time.Now()
	r := &Report{ID: "fig12", Title: "multiplane lensing: 9,061 fields along 700 lines of sight"}

	study, err := multiplaneStudy(opt)
	if err != nil {
		return nil, err
	}
	rows, err := study.run(fig12Procs, true)
	if err != nil {
		return nil, err
	}
	reportScaling(r, rows)
	r.Notef("paper: near-linear with only small deviation; mixed high/low density items make bin packing more effective than fig9's")
	r.Notef("%d stacks x %d planes = %d fields", len(study.Centers)/fig12Planes, fig12Planes, len(study.Centers))
	r.Elapsed = time.Since(start)
	return r, nil
}

// multiplaneStudy builds Fig 12's items: fields on 700 lines of sight of
// fig12Planes planes each through a clustered box, each counted from its
// cube, with costs from the real-kernel calibration.
func multiplaneStudy(opt Options) (*scalingStudy, error) {
	box := geom.AABB{Min: geom.Vec3{}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	nPart := opt.scaled(150000)
	pts := synth.HaloSet(nPart, box, synth.DefaultHaloSpec(), opt.Seed+3)

	centers := synth.LineOfSightStacks(opt.scaled(700), fig12Planes, box, opt.Seed+9)

	// Multiplane lens planes cover a generous region around each line of
	// sight, so even low-density planes carry real work (unlike fig9's
	// tight halo-centered cubes).
	const fieldLen = 0.1
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
		Seed:           opt.Seed + 10,
	}, nil
}
