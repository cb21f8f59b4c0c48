package render

import (
	"math"
	"math/rand"
	"testing"

	"godtfe/internal/geom"
)

// TestEntryLocatorsAgree verifies that the coherent walk (a cursor carried
// from query to query) returns the exact same facet index (not just the
// same starting tet) as the stateless bucket path for every query: the walk
// accepts only strict hits and defers ties to the bucket index, so facet
// choice is bucket-identical by construction.
func TestEntryLocatorsAgree(t *testing.T) {
	for name, pts := range equivCatalogs() {
		t.Run(name, func(t *testing.T) {
			m := NewMarcher(fieldFor(t, pts))
			cur := newEntryCursor(0)
			rng := rand.New(rand.NewSource(42))
			hits, misses := 0, 0
			for trial := 0; trial < 2000; trial++ {
				xi := geom.Vec2{X: rng.Float64()*1.2 - 0.1, Y: rng.Float64()*1.2 - 0.1}
				if trial%4 == 0 { // lattice-aligned: lands on facet edges and vertices
					xi = geom.Vec2{X: math.Round(xi.X*10) / 10, Y: math.Round(xi.Y*10) / 10}
				}
				bi := m.findEntryIdx(xi, nil)
				ci := m.findEntryIdx(xi, &cur)
				if bi != ci {
					t.Fatalf("disagreement at %v: buckets=%d coherent=%d", xi, bi, ci)
				}
				if bi < 0 {
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

// TestEntryModesSameRender renders a clipped grid with the coherent scan
// and with one stateless Column call per line of sight and requires
// bit-identical output.
func TestEntryModesSameRender(t *testing.T) {
	for name, pts := range equivCatalogs() {
		t.Run(name, func(t *testing.T) {
			m := NewMarcher(fieldFor(t, pts))
			spec := Spec{Min: geom.Vec2{X: 0.1, Y: 0.1}, Nx: 24, Ny: 24, Cell: 0.8 / 24, ZMin: 0, ZMax: 1}
			want, _, _ := columnRender(m, spec)
			got, _, err := m.Render(spec, 2, ScheduleDynamic)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Data {
				if math.Float64bits(want.Data[i]) != math.Float64bits(got.Data[i]) {
					t.Fatalf("coherent scan changed cell %d: %v vs %v", i, got.Data[i], want.Data[i])
				}
			}
		})
	}
}

func TestEntryWalkEmptyAndMisses(t *testing.T) {
	f := fieldFor(t, randPoints(50, 44))
	m := NewMarcher(f)
	rng := uint64(1)
	if got := m.walk.findFrom(0, geom.Vec2{X: 99, Y: 99}, &rng); got != -1 {
		t.Fatalf("far miss = %d", got)
	}
	if got := m.walk.findFrom(-5, geom.Vec2{X: 0.5, Y: 0.5}, &rng); got != entryUnresolved {
		t.Fatalf("bad hint should be unresolved, got %d", got)
	}
}

func BenchmarkEntryBuckets(b *testing.B) {
	f := fieldFor(b, randPoints(20000, 45))
	m := NewMarcher(f)
	b.ReportAllocs()
	b.ResetTimer()
	// Coherent scan like a grid render.
	n := 256
	for i := 0; i < b.N; i++ {
		j := i % (n * n)
		xi := geom.Vec2{X: float64(j%n) / float64(n), Y: float64(j/n) / float64(n)}
		m.entry.find(xi)
	}
}

func BenchmarkEntryCoherent(b *testing.B) {
	f := fieldFor(b, randPoints(20000, 45))
	m := NewMarcher(f)
	cur := newEntryCursor(0)
	b.ReportAllocs()
	b.ResetTimer()
	n := 256
	for i := 0; i < b.N; i++ {
		j := i % (n * n)
		xi := geom.Vec2{X: float64(j%n) / float64(n), Y: float64(j/n) / float64(n)}
		m.findEntryIdx(xi, &cur)
	}
}
