package pipeline

import (
	"fmt"
	"testing"

	"godtfe/internal/geom"
	"godtfe/internal/halo"
	"godtfe/internal/render"
	"godtfe/internal/synth"
)

// BenchmarkFieldMarch measures the field march on the dist_fields
// workload's shape — clustered particles, FieldLen 0.12, 64² grids, 40
// cubes centred on friends-of-friends halos, each gathered and built as an
// item builds it — with every marcher built outside the timer. One op
// renders the 40 fields on one worker; it reports ns/column and
// steps/column beside ns/op. `make bench-field` runs the 100k catalog on
// one pinned core; the 10k one is what -short runs.
func BenchmarkFieldMarch(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("%dk", n/1000), func(b *testing.B) {
			if n > 10_000 && testing.Short() {
				b.Skip("the 100k catalog is skipped under -short")
			}
			benchFieldMarch(b, n)
		})
	}
}

func benchFieldMarch(b *testing.B, n int) {
	cfg := Config{Box: unitBox(), FieldLen: 0.12, GridN: 64}
	pts := synth.HaloSet(n, cfg.Box, synth.DefaultHaloSpec(), 1)
	centers := halo.Centers(halo.Find(pts, 0.2*halo.MeanSeparation(pts), 5), 40)
	index := NewCellIndex(pts, cfg.triCubeSide()/2)
	rt := &runtime{cfg: cfg}
	var marchers []*render.Marcher
	var specs []render.Spec
	for _, c := range centers {
		var sel []geom.Vec3
		for _, id := range index.InBox(rt.cube(c), nil) {
			sel = append(sel, index.pts[id])
		}
		f, err := ItemField(sel)
		if err != nil {
			b.Fatal(err)
		}
		marchers = append(marchers, render.NewMarcher(f))
		specs = append(specs, ItemSpec(c, cfg.FieldLen, cfg.GridN))
	}
	b.ResetTimer()
	var steps int64
	for i := 0; i < b.N; i++ {
		for k, m := range marchers {
			_, stats, err := m.Render(specs[k], 1, render.ScheduleDynamic)
			if err != nil {
				b.Fatal(err)
			}
			steps += stats[0].Steps
		}
	}
	cols := float64(b.N * len(marchers) * cfg.GridN * cfg.GridN)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/cols, "ns/column")
	b.ReportMetric(float64(steps)/cols, "steps/column")
}
