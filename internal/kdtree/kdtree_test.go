package kdtree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"godtfe/internal/geom"
)

func randPts(n int, seed int64) []geom.Vec3 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vec3, n)
	for i := range pts {
		pts[i] = geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
	}
	return pts
}

func bruteNearest(pts []geom.Vec3, q geom.Vec3) (int, float64) {
	best, bestD := -1, 1e308
	for i, p := range pts {
		if d := p.Sub(q).Norm2(); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

func TestNearestMatchesBruteForce(t *testing.T) {
	for _, n := range []int{1, 5, 16, 17, 100, 1000} {
		pts := randPts(n, int64(n))
		tree := New(pts)
		rng := rand.New(rand.NewSource(99))
		for trial := 0; trial < 200; trial++ {
			q := geom.Vec3{X: rng.Float64()*2 - 0.5, Y: rng.Float64()*2 - 0.5, Z: rng.Float64()*2 - 0.5}
			gi, gd := tree.Nearest(q)
			bi, bd := bruteNearest(pts, q)
			if gd != bd {
				t.Fatalf("n=%d: dist %v vs brute %v", n, gd, bd)
			}
			if gi != bi && pts[gi].Sub(q).Norm2() != bd {
				t.Fatalf("n=%d: index mismatch %d vs %d", n, gi, bi)
			}
		}
	}
}

func TestDuplicatePointsTree(t *testing.T) {
	pts := make([]geom.Vec3, 64)
	for i := range pts {
		pts[i] = geom.Vec3{X: 0.5, Y: 0.5, Z: 0.5} // all identical
	}
	tree := New(pts)
	i, d := tree.Nearest(geom.Vec3{X: 0, Y: 0, Z: 0})
	if i < 0 || d != 0.75 {
		t.Fatalf("nearest = %d, %v", i, d)
	}
}

func TestEmptyTree(t *testing.T) {
	tree := New(nil)
	if i, _ := tree.Nearest(geom.Vec3{}); i != -1 {
		t.Fatalf("empty tree nearest = %d", i)
	}
}

func BenchmarkNearest100k(b *testing.B) {
	pts := randPts(100000, 11)
	tree := New(pts)
	rng := rand.New(rand.NewSource(12))
	qs := make([]geom.Vec3, 1024)
	for i := range qs {
		qs[i] = geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Nearest(qs[i%len(qs)])
	}
}

func BenchmarkBuild100k(b *testing.B) {
	pts := randPts(100000, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(pts)
	}
}

func TestQuickNearestProperty(t *testing.T) {
	// testing/quick: for arbitrary point sets and queries, the kd-tree
	// nearest distance equals the brute-force nearest distance.
	f := func(raw []float64, qx, qy, qz float64) bool {
		if len(raw) < 3 {
			return true
		}
		if len(raw) > 150 {
			raw = raw[:150]
		}
		var pts []geom.Vec3
		for i := 0; i+2 < len(raw); i += 3 {
			p := geom.Vec3{X: clampQ(raw[i]), Y: clampQ(raw[i+1]), Z: clampQ(raw[i+2])}
			pts = append(pts, p)
		}
		q := geom.Vec3{X: clampQ(qx), Y: clampQ(qy), Z: clampQ(qz)}
		tree := New(pts)
		_, gd := tree.Nearest(q)
		_, bd := bruteNearest(pts, q)
		return gd == bd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func clampQ(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0.5
	}
	return math.Mod(x, 100)
}
