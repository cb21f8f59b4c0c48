package synth

import (
	"math"
	"testing"

	"godtfe/internal/geom"
)

func unitBox() geom.AABB {
	return geom.AABB{Min: geom.Vec3{}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
}

func TestUniformInBox(t *testing.T) {
	box := geom.AABB{Min: geom.Vec3{X: -2, Y: 1, Z: 0}, Max: geom.Vec3{X: 3, Y: 2, Z: 10}}
	pts := Uniform(5000, box, 1)
	if len(pts) != 5000 {
		t.Fatalf("n = %d", len(pts))
	}
	for _, p := range pts {
		if !box.Contains(p) {
			t.Fatalf("point %v outside box", p)
		}
	}
	// Roughly uniform: each octant gets ~1/8.
	c := box.Center()
	counts := map[int]int{}
	for _, p := range pts {
		k := 0
		if p.X > c.X {
			k |= 1
		}
		if p.Y > c.Y {
			k |= 2
		}
		if p.Z > c.Z {
			k |= 4
		}
		counts[k]++
	}
	for k, n := range counts {
		if n < 400 || n > 900 {
			t.Fatalf("octant %d has %d points", k, n)
		}
	}
}

// TestNonPositiveCountIsEmpty: a count of zero or less is no points, not a
// makeslice panic.
func TestNonPositiveCountIsEmpty(t *testing.T) {
	for _, n := range []int{0, -5} {
		if pts := Uniform(n, unitBox(), 1); pts != nil {
			t.Errorf("Uniform(%d) = %d points", n, len(pts))
		}
		if pts := HaloSet(n, unitBox(), DefaultHaloSpec(), 1); pts != nil {
			t.Errorf("HaloSet(%d) = %d points", n, len(pts))
		}
	}
}

func TestUniformDeterministic(t *testing.T) {
	a := Uniform(100, unitBox(), 7)
	b := Uniform(100, unitBox(), 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce")
		}
	}
	c := Uniform(100, unitBox(), 8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seed gave identical output")
	}
}

// clusteringScore computes the variance of counts in a coarse cell grid,
// normalized by the Poisson expectation (1 for unclustered data, > 1 for
// clustered).
func clusteringScore(pts []geom.Vec3, box geom.AABB, cells int) float64 {
	counts := make([]float64, cells*cells*cells)
	sz := box.Size()
	for _, p := range pts {
		cx := int((p.X - box.Min.X) / sz.X * float64(cells))
		cy := int((p.Y - box.Min.Y) / sz.Y * float64(cells))
		cz := int((p.Z - box.Min.Z) / sz.Z * float64(cells))
		cx = clampi(cx, cells-1)
		cy = clampi(cy, cells-1)
		cz = clampi(cz, cells-1)
		counts[(cz*cells+cy)*cells+cx]++
	}
	mean := float64(len(pts)) / float64(len(counts))
	var v float64
	for _, c := range counts {
		d := c - mean
		v += d * d
	}
	v /= float64(len(counts))
	return v / mean // Poisson: variance == mean
}

func clampi(v, hi int) int {
	if v < 0 {
		return 0
	}
	if v > hi {
		return hi
	}
	return v
}

func TestHaloSetIsClustered(t *testing.T) {
	box := unitBox()
	halo := HaloSet(20000, box, DefaultHaloSpec(), 3)
	if len(halo) != 20000 {
		t.Fatalf("n = %d", len(halo))
	}
	for _, p := range halo {
		if !box.Contains(p) {
			t.Fatalf("halo point %v outside box", p)
		}
	}
	uni := Uniform(20000, box, 3)
	su := clusteringScore(uni, box, 8)
	sh := clusteringScore(halo, box, 8)
	if su > 3 {
		t.Fatalf("uniform clustering score %v too high", su)
	}
	if sh < 5*su {
		t.Fatalf("halo score %v not clearly clustered vs uniform %v", sh, su)
	}
}

func TestSoneiraPeeblesClustered(t *testing.T) {
	box := unitBox()
	pts := SoneiraPeebles(6, 4, 1.9, box, 5)
	if len(pts) != 4*int(math.Pow(4, 6)) {
		t.Fatalf("n = %d", len(pts))
	}
	for _, p := range pts {
		if !box.Contains(p) {
			t.Fatalf("point outside box")
		}
	}
	score := clusteringScore(pts, box, 8)
	if score < 10 {
		t.Fatalf("soneira-peebles score %v, expected strong clustering", score)
	}
}

func TestLineOfSightStacks(t *testing.T) {
	box := unitBox()
	centers := LineOfSightStacks(7, 9, box, 11)
	if len(centers) != 63 {
		t.Fatalf("n = %d", len(centers))
	}
	for l := 0; l < 7; l++ {
		base := centers[l*9]
		for p := 0; p < 9; p++ {
			c := centers[l*9+p]
			if c.X != base.X || c.Y != base.Y {
				t.Fatalf("stack %d not aligned in x,y", l)
			}
			wantZ := (float64(p) + 0.5) / 9
			if math.Abs(c.Z-wantZ) > 1e-12 {
				t.Fatalf("stack %d plane %d z=%v want %v", l, p, c.Z, wantZ)
			}
		}
	}
}
