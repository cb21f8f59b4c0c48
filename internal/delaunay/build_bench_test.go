package delaunay

import (
	"math"
	"math/rand"
	"testing"

	"godtfe/internal/geom"
)

// The build benchmarks cover the three point-distribution regimes the
// paper's catalogs exercise: random (filter almost always certifies, the
// insert loop dominates), lattice (grid-aligned coordinates: cospherical
// shells everywhere, so the exact predicate path fires constantly), and
// snapped (random points quantized to a coarse grid: a mix of clean and
// degenerate conflicts). 10k and 100k sizes bracket the per-item particle
// counts the scheduler experiments use.

func randomCatalog(n int, seed int64) []geom.Vec3 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vec3, n)
	for i := range pts {
		pts[i] = geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
	}
	return pts
}

// latticeCatalog returns ~n points on a regular grid with coordinates
// k/(side-1). The divisions are inexact in binary floating point, so the
// exact predicates cannot shortcut on exact difference tails: this is the
// worst case for the fallback path.
func latticeCatalog(n int) []geom.Vec3 {
	side := int(math.Round(math.Cbrt(float64(n))))
	if side < 2 {
		side = 2
	}
	pts := make([]geom.Vec3, 0, side*side*side)
	inv := 1.0 / float64(side-1)
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			for k := 0; k < side; k++ {
				pts = append(pts, geom.Vec3{
					X: float64(i) * inv,
					Y: float64(j) * inv,
					Z: float64(k) * inv,
				})
			}
		}
	}
	return pts
}

// snappedCatalog quantizes random points to a 1/32 grid, producing many
// coplanar/cospherical subsets and exact duplicates.
func snappedCatalog(n int, seed int64) []geom.Vec3 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vec3, n)
	for i := range pts {
		pts[i] = geom.Vec3{
			X: math.Round(rng.Float64()*32) / 32,
			Y: math.Round(rng.Float64()*32) / 32,
			Z: math.Round(rng.Float64()*32) / 32,
		}
	}
	return pts
}

func benchBuildPts(b *testing.B, pts []geom.Vec3) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tri, err := New(pts)
		if err != nil {
			b.Fatal(err)
		}
		_ = tri
	}
}

// benchSizes emits the build under the historical names
// (BenchmarkDelaunayBuild*/10k, .../100k) so baselines stay comparable.
func benchSizes(b *testing.B, mk func(n int) []geom.Vec3) {
	b.Helper()
	for _, n := range []int{10_000, 100_000} {
		n := n
		b.Run(sizeName(n), func(b *testing.B) {
			if n > 10_000 && testing.Short() {
				b.Skip("100k build skipped in -short mode")
			}
			benchBuildPts(b, mk(n))
		})
	}
}

func sizeName(n int) string {
	if n%1000 == 0 {
		return itoa(n/1000) + "k"
	}
	return itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func BenchmarkDelaunayBuildRandom(b *testing.B) {
	benchSizes(b, func(n int) []geom.Vec3 { return randomCatalog(n, 1) })
}

func BenchmarkDelaunayBuildLattice(b *testing.B) {
	benchSizes(b, latticeCatalog)
}

func BenchmarkDelaunayBuildSnapped(b *testing.B) {
	benchSizes(b, func(n int) []geom.Vec3 { return snappedCatalog(n, 2) })
}
