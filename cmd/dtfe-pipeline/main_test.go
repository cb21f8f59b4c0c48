package main

import (
	"math"
	"math/rand"
	"testing"

	"godtfe/internal/geom"
)

// TestHaloCentersPeriodic places fields on a catalog with one blob across
// the x = 0 face of the unit box: with -periodic it is one group whose
// centre lies within a linking length of that face, without it the face
// splits it in two.
func TestHaloCentersPeriodic(t *testing.T) {
	box := geom.AABB{Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	rng := rand.New(rand.NewSource(9))
	var pts []geom.Vec3
	for i := 0; i < 2000; i++ {
		pts = append(pts, geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()})
	}
	for i := 0; i < 200; i++ {
		x := 0.003 * rng.NormFloat64()
		pts = append(pts, geom.Vec3{
			X: x - math.Floor(x),
			Y: 0.5 + 0.003*rng.NormFloat64(),
			Z: 0.5 + 0.003*rng.NormFloat64(),
		})
	}

	centers, link, groups := haloCenters(pts, box, 4, true)
	if groups != 1 || len(centers) != 1 {
		t.Fatalf("periodic: %d groups, %d centres; want the blob as one", groups, len(centers))
	}
	if c := centers[0]; math.Min(c.X, 1-c.X) > link || !box.Contains(c) {
		t.Fatalf("periodic: centre %v is not within link %.4g of the x = 0 face", c, link)
	}
	if _, _, groups := haloCenters(pts, box, 4, false); groups != 2 {
		t.Fatalf("non-periodic: %d groups; want the blob split by the face", groups)
	}
}
