// Kernel comparison: render the same surface-density field with all three
// strategies — the paper's marching kernel, the DTFE-public walking
// baseline, and the TESS/DENSE zero-order baseline — and report wall
// times, work counts, and map agreement (the single-node version of the
// paper's Figs 6–8).
package main

import (
	"fmt"
	"log"
	"time"

	"godtfe"
	"godtfe/internal/dtfe"
	"godtfe/internal/grid"
	"godtfe/internal/render"
	"godtfe/internal/synth"
)

func main() {
	box := godtfe.Box{Min: godtfe.Vec3{}, Max: godtfe.Vec3{X: 1, Y: 1, Z: 1}}
	pts := synth.HaloSet(25000, box, synth.DefaultHaloSpec(), 9)

	t0 := time.Now()
	tri, err := godtfe.Triangulate(pts)
	if err != nil {
		log.Fatal(err)
	}
	field, err := godtfe.NewDensityField(tri, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("triangulation + DTFE densities: %v (%s)\n",
		time.Since(t0).Round(time.Millisecond), tri.Stats())

	const gridN = 192
	spec := godtfe.GridSpec{
		Min: godtfe.Vec2{}, Nx: gridN, Ny: gridN, Cell: 1.0 / gridN,
		ZMin: 0, ZMax: 1, Nz: gridN,
	}

	type result struct {
		name  string
		g     *grid.Grid2D
		wall  time.Duration
		steps int64
	}
	var results []result
	run := func(name string, f func() (*grid.Grid2D, []godtfe.WorkerStat, error)) {
		t := time.Now()
		g, stats, err := f()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		var steps int64
		for _, s := range stats {
			steps += s.Steps
		}
		results = append(results, result{name, g, time.Since(t), steps})
	}

	m := render.NewMarcher(field)
	run("marching (paper)", func() (*grid.Grid2D, []godtfe.WorkerStat, error) {
		return m.Render(spec, 1, render.ScheduleDynamic)
	})
	w := render.NewWalker(field)
	run("walking (DTFE 1.1.1)", func() (*grid.Grid2D, []godtfe.WorkerStat, error) {
		return w.Render(spec, 1)
	})
	vorDen, _, err := dtfe.VoronoiDensities(tri, nil)
	if err != nil {
		log.Fatal(err)
	}
	z := render.NewZeroOrder(pts, vorDen)
	run("zero-order (TESS/DENSE)", func() (*grid.Grid2D, []godtfe.WorkerStat, error) {
		return z.Render(spec, 1)
	})

	fmt.Printf("\n%-24s %10s %14s %14s %12s\n", "kernel", "wall", "steps", "proj. mass", "L1 vs march")
	for _, r := range results {
		l1, _ := grid.L1Diff(r.g, results[0].g)
		fmt.Printf("%-24s %10v %14d %14.1f %12.4g\n",
			r.name, r.wall.Round(time.Millisecond), r.steps, r.g.Integral(), l1)
	}
	fmt.Printf("\nspeedup vs walking: %.1fx; vs zero-order: %.1fx\n",
		float64(results[1].wall)/float64(results[0].wall),
		float64(results[2].wall)/float64(results[0].wall))
}
