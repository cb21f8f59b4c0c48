package halo

import (
	"math/rand"
	"testing"

	"godtfe/internal/geom"
)

// bruteFOF is an O(n²) reference implementation.
func bruteFOF(pts []geom.Vec3, link float64, minMembers int) []Halo {
	n := len(pts)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if pts[i].Sub(pts[j]).Norm2() <= link*link {
				parent[find(i)] = find(j)
			}
		}
	}
	groups := map[int][]int32{}
	for i := 0; i < n; i++ {
		groups[find(i)] = append(groups[find(i)], int32(i))
	}
	var out []Halo
	for _, m := range groups {
		if len(m) >= minMembers {
			out = append(out, Halo{Members: m, N: len(m)})
		}
	}
	return out
}

func TestFOFMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		n := 200 + rng.Intn(300)
		pts := make([]geom.Vec3, n)
		for i := range pts {
			pts[i] = geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		}
		link := 0.02 + 0.05*rng.Float64()
		got := Find(pts, link, 2)
		want := bruteFOF(pts, link, 2)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d groups vs brute %d", trial, len(got), len(want))
		}
		// Compare the multiset of group sizes.
		sizes := func(hs []Halo) map[int]int {
			m := map[int]int{}
			for _, h := range hs {
				m[h.N]++
			}
			return m
		}
		gs, ws := sizes(got), sizes(want)
		for k, v := range ws {
			if gs[k] != v {
				t.Fatalf("trial %d: size %d count %d vs %d", trial, k, gs[k], v)
			}
		}
	}
}

func TestFOFTwoBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var pts []geom.Vec3
	blob := func(c geom.Vec3, n int) {
		for i := 0; i < n; i++ {
			pts = append(pts, c.Add(geom.Vec3{
				X: 0.01 * rng.NormFloat64(),
				Y: 0.01 * rng.NormFloat64(),
				Z: 0.01 * rng.NormFloat64(),
			}))
		}
	}
	blob(geom.Vec3{X: 0.2, Y: 0.2, Z: 0.2}, 120)
	blob(geom.Vec3{X: 0.8, Y: 0.8, Z: 0.8}, 60)
	halos := Find(pts, 0.05, 10)
	if len(halos) != 2 {
		t.Fatalf("found %d halos, want 2", len(halos))
	}
	// Sorted by size descending.
	if halos[0].N != 120 || halos[1].N != 60 {
		t.Fatalf("sizes %d, %d", halos[0].N, halos[1].N)
	}
	if halos[0].Center.Sub(geom.Vec3{X: 0.2, Y: 0.2, Z: 0.2}).Norm() > 0.01 {
		t.Fatalf("center of big blob: %v", halos[0].Center)
	}
	cs := Centers(halos, 1)
	if len(cs) != 1 || cs[0] != halos[0].Center {
		t.Fatalf("Centers = %v", cs)
	}
	if len(Centers(halos, 0)) != 2 {
		t.Fatal("Centers(0) should return all")
	}
}

func TestFOFMinMembersFilter(t *testing.T) {
	pts := []geom.Vec3{
		{X: 0, Y: 0, Z: 0}, {X: 0.001, Y: 0, Z: 0}, // pair
		{X: 0.5, Y: 0.5, Z: 0.5}, // singleton
	}
	if got := Find(pts, 0.01, 2); len(got) != 1 || got[0].N != 2 {
		t.Fatalf("got %+v", got)
	}
	if got := Find(pts, 0.01, 1); len(got) != 2 {
		t.Fatalf("minMembers=1 got %d groups", len(got))
	}
}

func TestFindPeriodicJoinsAcrossFace(t *testing.T) {
	box := geom.AABB{Min: geom.Vec3{}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	rng := rand.New(rand.NewSource(17))
	var pts []geom.Vec3
	// One blob straddling the x=0/x=1 face: half near x=0.99, half near
	// x=0.01.
	for i := 0; i < 60; i++ {
		x := 0.99 + 0.005*rng.NormFloat64()
		if i%2 == 0 {
			x = 0.01 + 0.005*rng.NormFloat64()
		}
		// Wrap into the box.
		if x >= 1 {
			x -= 1
		}
		if x < 0 {
			x += 1
		}
		pts = append(pts, geom.Vec3{X: x, Y: 0.5 + 0.005*rng.NormFloat64(), Z: 0.5 + 0.005*rng.NormFloat64()})
	}
	// A control blob in the middle.
	for i := 0; i < 40; i++ {
		pts = append(pts, geom.Vec3{
			X: 0.5 + 0.005*rng.NormFloat64(),
			Y: 0.2 + 0.005*rng.NormFloat64(),
			Z: 0.2 + 0.005*rng.NormFloat64(),
		})
	}
	// Non-periodic: the straddling blob splits into two.
	plain := Find(pts, 0.03, 10)
	if len(plain) != 3 {
		t.Fatalf("non-periodic groups = %d, want 3", len(plain))
	}
	// Periodic: it is one group of 60.
	per := FindPeriodic(pts, box, 0.03, 10)
	if len(per) != 2 {
		t.Fatalf("periodic groups = %d, want 2", len(per))
	}
	if per[0].N != 60 || per[1].N != 40 {
		t.Fatalf("periodic group sizes %d, %d", per[0].N, per[1].N)
	}
	// The straddler's center wraps to near the face, not to x≈0.5.
	cx := per[0].Center.X
	if cx > 0.1 && cx < 0.9 {
		t.Fatalf("straddling group center x = %v, want near a face", cx)
	}
	if !box.Contains(per[0].Center) {
		t.Fatalf("center %v outside box", per[0].Center)
	}
}

func TestFindPeriodicMatchesPlainInInterior(t *testing.T) {
	// Away from the faces, periodic and plain agree exactly.
	box := geom.AABB{Min: geom.Vec3{}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	rng := rand.New(rand.NewSource(18))
	var pts []geom.Vec3
	for i := 0; i < 400; i++ {
		pts = append(pts, geom.Vec3{
			X: 0.2 + 0.6*rng.Float64(),
			Y: 0.2 + 0.6*rng.Float64(),
			Z: 0.2 + 0.6*rng.Float64(),
		})
	}
	a := Find(pts, 0.05, 3)
	b := FindPeriodic(pts, box, 0.05, 3)
	if len(a) != len(b) {
		t.Fatalf("group counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].N != b[i].N {
			t.Fatalf("group %d size %d vs %d", i, a[i].N, b[i].N)
		}
	}
}

func TestFOFEdgeCases(t *testing.T) {
	if got := Find(nil, 0.1, 1); got != nil {
		t.Fatal("empty input should return nil")
	}
	if got := Find([]geom.Vec3{{X: 1, Y: 1, Z: 1}}, 0, 1); got != nil {
		t.Fatal("non-positive link should return nil")
	}
}

func TestMeanSeparation(t *testing.T) {
	var pts []geom.Vec3
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			for k := 0; k < 10; k++ {
				pts = append(pts, geom.Vec3{X: float64(i), Y: float64(j), Z: float64(k)})
			}
		}
	}
	// Box is 9x9x9 with 1000 points: (729/1000)^(1/3) = 0.9.
	if d := MeanSeparation(pts); d < 0.89 || d > 0.91 {
		t.Fatalf("mean separation = %v", d)
	}
	if MeanSeparation(nil) != 0 {
		t.Fatal("empty separation should be 0")
	}
}

func BenchmarkFOF20k(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	pts := make([]geom.Vec3, 20000)
	for i := range pts {
		pts[i] = geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Find(pts, 0.02, 5)
	}
}
