package render

import (
	"math"
	"math/rand"
	"testing"

	"godtfe/internal/geom"
	"godtfe/internal/synth"
)

// TestEntryIndexLowestContaining checks the bucket index against a linear
// scan of every entry facet: find must return the lowest-index facet whose
// closed projection contains the query, or -1 when none does — including
// lattice-aligned queries that land on shared facet edges and vertices.
func TestEntryIndexLowestContaining(t *testing.T) {
	for name, pts := range equivCatalogs() {
		t.Run(name, func(t *testing.T) {
			m := NewMarcher(fieldFor(t, pts))
			rng := rand.New(rand.NewSource(42))
			hits, misses := 0, 0
			for trial := 0; trial < 2000; trial++ {
				xi := geom.Vec2{X: rng.Float64()*1.2 - 0.1, Y: rng.Float64()*1.2 - 0.1}
				if trial%4 == 0 { // lattice-aligned: lands on facet edges and vertices
					xi = geom.Vec2{X: math.Round(xi.X*10) / 10, Y: math.Round(xi.Y*10) / 10}
				}
				want := int32(-1)
				for fi := range m.entry.faces {
					if m.entry.faces[fi].contains(xi) {
						want = int32(fi)
						break
					}
				}
				if got := m.entry.find(xi); got != want {
					t.Fatalf("find(%v) = %d, linear scan %d", xi, got, want)
				}
				if want < 0 {
					misses++
				} else {
					hits++
				}
			}
			if hits == 0 || misses == 0 {
				t.Fatalf("unbalanced coverage: hits=%d misses=%d", hits, misses)
			}
		})
	}
}

// BenchmarkEntryBuckets times one bucket-index query on two streams:
// scan256 walks a 256² lattice over 20k uniform points row by row (a
// whole-grid render); windows32 visits random 32×32 windows of a 256
// lattice over a 20k synth.HaloSet, each row-major (the resident field
// service's unique requests).
func BenchmarkEntryBuckets(b *testing.B) {
	const n = 256
	b.Run("scan256", func(b *testing.B) {
		m := NewMarcher(fieldFor(b, randPoints(20000, 45)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % (n * n)
			m.entry.find(geom.Vec2{X: float64(j%n) / float64(n), Y: float64(j/n) / float64(n)})
		}
	})
	b.Run("windows32", func(b *testing.B) {
		box := geom.AABB{Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
		m := NewMarcher(fieldFor(b, synth.HaloSet(20000, box, synth.DefaultHaloSpec(), 45)))
		const w, nwin = 32, 1024
		rng := rand.New(rand.NewSource(46))
		var origin [nwin][2]int
		for k := range origin {
			origin[k] = [2]int{rng.Intn(n - w + 1), rng.Intn(n - w + 1)}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := i % (nwin * w * w)
			o, c := origin[q/(w*w)], q%(w*w)
			m.entry.find(geom.Vec2{
				X: (float64(o[0]+c%w) + 0.5) / n,
				Y: (float64(o[1]+c/w) + 0.5) / n,
			})
		}
	})
}
