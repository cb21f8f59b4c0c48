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

func TestCountInBoxMatchesBruteForce(t *testing.T) {
	pts := randPts(800, 7)
	tree := New(pts)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		lo := geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		sz := 0.3 * rng.Float64()
		box := geom.AABB{Min: lo, Max: lo.Add(geom.Vec3{X: sz, Y: sz, Z: sz})}
		want := 0
		for _, p := range pts {
			if box.Contains(p) {
				want++
			}
		}
		if got := tree.CountInBox(box); got != want {
			t.Fatalf("count %d want %d", got, want)
		}
		ids := tree.InBox(box, nil)
		if len(ids) != want {
			t.Fatalf("InBox returned %d want %d", len(ids), want)
		}
		for _, i := range ids {
			if !box.Contains(pts[i]) {
				t.Fatalf("InBox returned outside point %d", i)
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
	if n := tree.CountInBox(geom.AABB{Min: geom.Vec3{}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}}); n != 64 {
		t.Fatalf("count = %d", n)
	}
}

func TestEmptyTree(t *testing.T) {
	tree := New(nil)
	if i, _ := tree.Nearest(geom.Vec3{}); i != -1 {
		t.Fatalf("empty tree nearest = %d", i)
	}
	if n := tree.CountInBox(geom.AABB{Min: geom.Vec3{}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}}); n != 0 {
		t.Fatalf("empty count = %d", n)
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

func TestQuickCountInBoxProperty(t *testing.T) {
	f := func(raw []float64, ax, ay, az, sx, sy, sz float64) bool {
		var pts []geom.Vec3
		if len(raw) > 120 {
			raw = raw[:120]
		}
		for i := 0; i+2 < len(raw); i += 3 {
			pts = append(pts, geom.Vec3{X: clampQ(raw[i]), Y: clampQ(raw[i+1]), Z: clampQ(raw[i+2])})
		}
		lo := geom.Vec3{X: clampQ(ax), Y: clampQ(ay), Z: clampQ(az)}
		box := geom.AABB{Min: lo, Max: lo.Add(geom.Vec3{
			X: math.Abs(clampQ(sx)), Y: math.Abs(clampQ(sy)), Z: math.Abs(clampQ(sz)),
		})}
		tree := New(pts)
		want := 0
		for _, p := range pts {
			if box.Contains(p) {
				want++
			}
		}
		return tree.CountInBox(box) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
