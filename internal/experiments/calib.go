package experiments

import (
	"math"
	"math/rand"
	"time"

	"godtfe/internal/geom"
	"godtfe/internal/model"
	"godtfe/internal/pipeline"
	"godtfe/internal/render"
	"godtfe/internal/synth"
)

// calibration is a cost model of the real kernel on this host, fit from
// real timed executions. The scaling figures (9, 10, 12, 13) feed it to
// the virtual-time executor so their shapes reflect the true per-item cost
// curve.
type calibration struct {
	Model model.WorkModel
	// Samples are the raw measurements (n, tri seconds, render seconds).
	NS, Tri, Rend []float64
}

// calibrate measures tri+render time on fields of growing particle count
// cut from a clustered box, then fits the paper's two models.
func calibrate(opt Options, gridN int) (*calibration, error) {
	box := geom.AABB{Min: geom.Vec3{}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	// The calibration defines the cost curve the scaling figures trust, so
	// it keeps a floor on the dataset size even when Scale shrinks the
	// experiments themselves.
	nPart := opt.scaled(60000)
	if nPart < 20000 {
		nPart = 20000
	}
	pts := synth.HaloSet(nPart, box, synth.DefaultHaloSpec(), opt.Seed+101)
	index := pipeline.NewCellIndex(pts, 0.05)
	rng := rand.New(rand.NewSource(opt.Seed + 102))
	cal := &calibration{}
	// Sample cubes of several sizes at random positions to span the n
	// range the experiments will predict over.
	sides := []float64{0.04, 0.07, 0.1, 0.15, 0.2, 0.28}
	for _, side := range sides {
		for trial := 0; trial < 4; trial++ {
			c := geom.Vec3{
				X: side/2 + rng.Float64()*(1-side),
				Y: side/2 + rng.Float64()*(1-side),
				Z: side/2 + rng.Float64()*(1-side),
			}
			sel := gather(index, pts, cube(c, side/2))
			if len(sel) < 64 {
				continue
			}
			tTri, tRend, err := timeItem(sel, c, side*0.8, gridN)
			if err != nil {
				continue
			}
			cal.NS = append(cal.NS, float64(len(sel)))
			cal.Tri = append(cal.Tri, tTri)
			cal.Rend = append(cal.Rend, tRend)
		}
	}
	wm, err := model.Fit(cal.NS, cal.Tri, cal.Rend)
	if err != nil {
		return nil, err
	}
	cal.Model = wm
	return cal, nil
}

// timeItem builds and renders one field the way the pipeline's item does,
// lex sort included, and returns the two phases' seconds.
func timeItem(sel []geom.Vec3, center geom.Vec3, fieldLen float64, gridN int) (tTri, tRend float64, err error) {
	t0 := time.Now()
	f, err := pipeline.ItemField(sel)
	if err != nil {
		return 0, 0, err
	}
	tTri = time.Since(t0).Seconds()
	t1 := time.Now()
	m := render.NewMarcher(f)
	if _, _, err := m.Render(pipeline.ItemSpec(center, fieldLen, gridN), 1, render.ScheduleDynamic); err != nil {
		return 0, 0, err
	}
	return tTri, time.Since(t1).Seconds(), nil
}

// cube is the closed cube of half-width h centred on c.
func cube(c geom.Vec3, h float64) geom.AABB {
	return geom.AABB{Min: c.Sub(geom.Vec3{X: h, Y: h, Z: h}), Max: c.Add(geom.Vec3{X: h, Y: h, Z: h})}
}

// gather copies out the points of pts, which index indexes, inside the
// closed box b.
func gather(index *pipeline.CellIndex, pts []geom.Vec3, b geom.AABB) []geom.Vec3 {
	ids := index.InBox(b, nil)
	sel := make([]geom.Vec3, len(ids))
	for i, id := range ids {
		sel[i] = pts[id]
	}
	return sel
}

// cubeCounts is the number of points of pts in the closed cube of the
// given side centred on each of centers, counted as Phase 2 counts an
// item: the length of the cube's query.
func cubeCounts(pts, centers []geom.Vec3, side float64) []int {
	index := pipeline.NewCellIndex(pts, side/2)
	counts := make([]int, len(centers))
	var ids []int32
	for i, c := range centers {
		ids = index.InBox(cube(c, side/2), ids[:0])
		counts[i] = len(ids)
	}
	return counts
}

// lognoise returns a multiplicative log-normal noise factor.
func lognoise(rng *rand.Rand, sigma float64) float64 {
	return math.Exp(sigma * rng.NormFloat64())
}
