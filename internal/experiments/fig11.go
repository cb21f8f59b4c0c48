package experiments

import (
	"math/rand"
	"time"

	"godtfe/internal/geom"
	"godtfe/internal/model"
	"godtfe/internal/pipeline"
	"godtfe/internal/stats"
	"godtfe/internal/synth"
)

// Fig11 reproduces the model-prediction-error histograms (paper Fig 11):
// fit the triangulation model c·n·log2(n) and the interpolation model
// α·n^β exactly as the modeling phase does, then histogram the residuals
// (actual - predicted) of real, individually timed work items. The paper's
// distributions are roughly symmetric with mean near zero.
func Fig11(opt Options) (*Report, error) {
	opt = opt.fill()
	start := time.Now()
	r := &Report{ID: "fig11", Title: "workload model prediction error (real measurements)"}

	nItems := opt.scaled(160)
	box := geom.AABB{Min: geom.Vec3{}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	pts := synth.HaloSet(opt.scaled(80000), box, synth.DefaultHaloSpec(), opt.Seed+7)
	const fieldLen = 0.07
	side := fieldLen * 1.5
	index := pipeline.NewCellIndex(pts, side/2)
	rng := rand.New(rand.NewSource(opt.Seed + 8))

	var ns, triT, rendT []float64
	for len(ns) < nItems {
		c := pts[rng.Intn(len(pts))] // halo-weighted positions
		sel := gather(index, pts, cube(c, side/2))
		if len(sel) < 64 {
			continue
		}
		tt, tr, err := timeItem(sel, c, fieldLen, 48)
		if err != nil {
			continue
		}
		ns = append(ns, float64(len(sel)))
		triT = append(triT, tt)
		rendT = append(rendT, tr)
	}

	wm, err := model.Fit(ns, triT, rendT)
	if err != nil {
		return nil, err
	}
	var triErr, rendErr []float64
	var triScale, rendScale float64
	for i := range ns {
		triScale += triT[i]
		rendScale += rendT[i]
	}
	triScale /= float64(len(ns))
	rendScale /= float64(len(ns))
	for i := range ns {
		// Normalize residuals by the mean phase time so the histogram
		// range is comparable to the paper's (their x-axis is raw
		// seconds on their hardware).
		triErr = append(triErr, (triT[i]-wm.Tri.Predict(ns[i]))/triScale)
		rendErr = append(rendErr, (rendT[i]-wm.Interp.Predict(ns[i]))/rendScale)
	}
	ht := stats.NewHistogram(-2, 2, 21)
	ht.AddAll(triErr)
	hr := stats.NewHistogram(-2, 2, 21)
	hr.AddAll(rendErr)

	r.Rowf("%-12s %16s %16s", "error (norm.)", "triangulation", "interpolation")
	for i := range ht.Counts {
		r.Rowf("%12.2f %16d %16d", ht.BinCenter(i), ht.Counts[i], hr.Counts[i])
	}
	st := stats.Summarize(triErr)
	sr := stats.Summarize(rendErr)
	r.Rowf("triangulation: n=%d mean=%+.4f std=%.4f", st.N, st.Mean, st.Std)
	r.Rowf("interpolation: n=%d mean=%+.4f std=%.4f", sr.N, sr.Mean, sr.Std)
	r.Rowf("fit: c=%.3e  alpha=%.3e beta=%.3f", wm.Tri.C, wm.Interp.Alpha, wm.Interp.Beta)
	r.Notef("paper: error distributions symmetric with mean near zero; %d real items timed here", len(ns))
	r.Elapsed = time.Since(start)
	return r, nil
}
