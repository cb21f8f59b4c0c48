package delaunay

import (
	"math/rand"
	"testing"

	"godtfe/internal/geom"
)

// benchChurnDelta builds a churn delta over interior vertices only, so
// the benchmark measures the star-repair path rather than the rebuild
// fallback (hull churn may legitimately fall back, and TestDeltaStarRepairPath
// pins that interior churn does not).
func benchChurnDelta(pts []geom.Vec3, frac float64, seed int64) Delta {
	rng := rand.New(rand.NewSource(seed))
	k := int(frac * float64(len(pts)))
	if k < 1 {
		k = 1
	}
	var d Delta
	perm := rng.Perm(len(pts))
	for _, i := range perm {
		p := pts[i]
		if p.X > 0.1 && p.X < 0.9 && p.Y > 0.1 && p.Y < 0.9 && p.Z > 0.1 && p.Z < 0.9 {
			d.Remove = append(d.Remove, i)
			if len(d.Remove) == k {
				break
			}
		}
	}
	for i := 0; i < k; i++ {
		d.Add = append(d.Add, geom.Vec3{
			X: 0.1 + 0.8*rng.Float64(),
			Y: 0.1 + 0.8*rng.Float64(),
			Z: 0.1 + 0.8*rng.Float64(),
		})
	}
	return d
}

func benchDeltaUpdate(b *testing.B, frac float64) {
	pts := randomCatalog(10000, 21)
	tri, err := New(pts)
	if err != nil {
		b.Fatal(err)
	}
	d := benchChurnDelta(pts, frac, 33)
	b.ReportAllocs()
	b.ResetTimer()
	rebuilds := 0
	for i := 0; i < b.N; i++ {
		_, st, err := tri.ApplyDelta(d)
		if err != nil {
			b.Fatal(err)
		}
		rebuilds += st.Rebuilds
	}
	b.StopTimer()
	if rebuilds > 0 {
		b.Fatalf("delta benchmark fell back to full rebuilds %d/%d times", rebuilds, b.N)
	}
}

func benchDeltaRebuild(b *testing.B, frac float64) {
	pts := randomCatalog(10000, 21)
	d := benchChurnDelta(pts, frac, 33)
	final := applyOracle(pts, d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(final); err != nil {
			b.Fatal(err)
		}
	}
}

// The delta-vs-rebuild pairs back BENCH_PR10.json's headline claim: an
// incremental update must beat a from-scratch build of the edited
// catalog at small churn fractions.
func BenchmarkDeltaUpdate1PctChurn(b *testing.B)   { benchDeltaUpdate(b, 0.01) }
func BenchmarkDeltaUpdate10PctChurn(b *testing.B)  { benchDeltaUpdate(b, 0.10) }
func BenchmarkDeltaRebuild1PctChurn(b *testing.B)  { benchDeltaRebuild(b, 0.01) }
func BenchmarkDeltaRebuild10PctChurn(b *testing.B) { benchDeltaRebuild(b, 0.10) }

// BenchmarkRestore times what fieldserve's Update pays before ApplyDelta:
// copying the resident mesh's finite tets out (as render.Marcher.Mesh does)
// and restoring the Triangulation from them, in ns per tet of the pool.
func BenchmarkRestore(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(sizeName(n), func(b *testing.B) {
			if n > 10_000 && testing.Short() {
				b.Skip("100k build skipped in -short mode")
			}
			tri, err := New(randomCatalog(n, 21))
			if err != nil {
				b.Fatal(err)
			}
			finite, dup := restoreInput(tri)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in := make([]Tet, len(finite), cap(finite))
				copy(in, finite)
				if _, err := Restore(tri.pts, dup, in); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(tri.tets)), "ns/tet")
		})
	}
}
