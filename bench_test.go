package godtfe

// Benchmark harness: one bench per paper figure (6-13) plus the ablation
// benches called out in DESIGN.md §4. Figure benches wrap the
// internal/experiments drivers at a small scale so `go test -bench .`
// finishes quickly; run `dtfe-experiments` for the full reproduction with
// the paper's series printed.

import (
	"testing"

	"godtfe/internal/delaunay"
	"godtfe/internal/dtfe"
	"godtfe/internal/experiments"
	"godtfe/internal/geom"
	"godtfe/internal/render"
	"godtfe/internal/synth"
)

const benchScale = 0.05

func benchFigure(b *testing.B, id string) {
	b.Helper()
	drv := experiments.All()[id]
	for i := 0; i < b.N; i++ {
		opt := experiments.Options{Scale: benchScale, Seed: int64(i) + 1, ArtifactDir: b.TempDir()}
		if _, err := drv(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1Showpiece(b *testing.B)              { benchFigure(b, "fig1") }
func BenchmarkFig6SharedMemoryComparison(b *testing.B) { benchFigure(b, "fig6") }
func BenchmarkFig7DistributedComparison(b *testing.B)  { benchFigure(b, "fig7") }
func BenchmarkFig8RatioMaps(b *testing.B)              { benchFigure(b, "fig8") }
func BenchmarkFig9GalaxyGalaxyScaling(b *testing.B)    { benchFigure(b, "fig9") }
func BenchmarkFig10WorkloadImbalance(b *testing.B)     { benchFigure(b, "fig10") }
func BenchmarkFig11ModelError(b *testing.B)            { benchFigure(b, "fig11") }
func BenchmarkFig12MultiplaneScaling(b *testing.B)     { benchFigure(b, "fig12") }
func BenchmarkFig13LargeScaleDegenerates(b *testing.B) { benchFigure(b, "fig13") }

// --- kernel micro-benchmarks ------------------------------------------

func benchField(b *testing.B, n int) *dtfe.Field {
	b.Helper()
	box := geom.AABB{Min: geom.Vec3{}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	pts := synth.HaloSet(n, box, synth.DefaultHaloSpec(), 9)
	tri, err := delaunay.New(pts)
	if err != nil {
		b.Fatal(err)
	}
	f, err := dtfe.NewField(tri, nil)
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkKernelMarching and BenchmarkKernelWalking render the same grid
// with the two strategies: the headline ablation (marching avoids the 3D
// grid entirely).
func BenchmarkKernelMarching(b *testing.B) {
	b.ReportAllocs()
	f := benchField(b, 20000)
	m := render.NewMarcher(f)
	spec := render.Spec{Min: geom.Vec2{}, Nx: 64, Ny: 64, Cell: 1.0 / 64, ZMin: 0, ZMax: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.Render(spec, 1, render.ScheduleDynamic); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelWalking(b *testing.B) {
	b.ReportAllocs()
	f := benchField(b, 20000)
	w := render.NewWalker(f)
	spec := render.Spec{Min: geom.Vec2{}, Nx: 64, Ny: 64, Cell: 1.0 / 64, ZMin: 0, ZMax: 1, Nz: 256}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := w.Render(spec, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelZeroOrder(b *testing.B) {
	b.ReportAllocs()
	f := benchField(b, 20000)
	z := render.NewZeroOrder(f.Tri.Points(), f.Density)
	spec := render.Spec{Min: geom.Vec2{}, Nx: 64, Ny: 64, Cell: 1.0 / 64, ZMin: 0, ZMax: 1, Nz: 256}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := z.Render(spec, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelColumn times one line-of-sight integration (entry
// location + full march) in isolation; the column loop must stay
// allocation-free.
func BenchmarkKernelColumn(b *testing.B) {
	b.ReportAllocs()
	f := benchField(b, 20000)
	m := render.NewMarcher(f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xi := geom.Vec2{X: 0.1 + 0.0011*float64(i%700), Y: 0.15 + 0.0009*float64(i%800)}
		m.Column(xi, 0, 1)
	}
}

// --- ablation benches (DESIGN.md §4) ----------------------------------

// BRIO insertion order (Hilbert-sorted rounds) vs raw input order for
// triangulation.
func BenchmarkAblationBuildBRIO(b *testing.B) {
	box := geom.AABB{Min: geom.Vec3{}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	pts := synth.HaloSet(10000, box, synth.DefaultHaloSpec(), 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := delaunay.New(pts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBuildInputOrder(b *testing.B) {
	box := geom.AABB{Min: geom.Vec3{}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	pts := synth.HaloSet(10000, box, synth.DefaultHaloSpec(), 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := delaunay.NewInputOrder(pts); err != nil {
			b.Fatal(err)
		}
	}
}

// Midpoint-exact per-tet integral (eq 12, Samples=1) vs Monte Carlo
// oversampling (eq 5): the exact rule makes extra samples unnecessary for
// smooth columns.
func BenchmarkAblationExactMidpoint(b *testing.B) {
	b.ReportAllocs()
	f := benchField(b, 10000)
	m := render.NewMarcher(f)
	spec := render.Spec{Min: geom.Vec2{}, Nx: 48, Ny: 48, Cell: 1.0 / 48, ZMin: 0, ZMax: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.Render(spec, 1, render.ScheduleDynamic); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMonteCarlo4x(b *testing.B) {
	b.ReportAllocs()
	f := benchField(b, 10000)
	m := render.NewMarcher(f)
	spec := render.Spec{Min: geom.Vec2{}, Nx: 48, Ny: 48, Cell: 1.0 / 48, ZMin: 0, ZMax: 1, Samples: 4, Seed: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.Render(spec, 1, render.ScheduleDynamic); err != nil {
			b.Fatal(err)
		}
	}
}

// Exact-predicate fallback rate on degenerate (lattice) vs random input.
func BenchmarkAblationPredicatesRandom(b *testing.B) {
	box := geom.AABB{Min: geom.Vec3{}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	pts := synth.Uniform(5000, box, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before := geom.ExactCalls.Load()
		if _, err := delaunay.New(pts); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(geom.ExactCalls.Load()-before), "exact-calls/op")
	}
}

func BenchmarkAblationPredicatesLattice(b *testing.B) {
	var pts []geom.Vec3
	for i := 0; i < 17; i++ {
		for j := 0; j < 17; j++ {
			for k := 0; k < 17; k++ {
				pts = append(pts, geom.Vec3{X: float64(i), Y: float64(j), Z: float64(k)})
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before := geom.ExactCalls.Load()
		if _, err := delaunay.New(pts); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(geom.ExactCalls.Load()-before), "exact-calls/op")
	}
}

// End-to-end distributed pipeline with and without work sharing.
func benchPipeline(b *testing.B, lb bool) {
	box := geom.AABB{Min: geom.Vec3{}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	pts := synth.HaloSet(6000, box, synth.DefaultHaloSpec(), 6)
	centers := synth.Uniform(16, box, 7)
	cfg := PipelineConfig{Box: box, FieldLen: 0.12, GridN: 16, LoadBalance: lb, Seed: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunDistributed(4, cfg, pts, centers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPipelineNoSharing(b *testing.B)   { benchPipeline(b, false) }
func BenchmarkAblationPipelineWithSharing(b *testing.B) { benchPipeline(b, true) }
