package halo

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"godtfe/internal/geom"
	"godtfe/internal/synth"
)

var unitBox = geom.AABB{Max: geom.Vec3{X: 1, Y: 1, Z: 1}}

type fofCatalog struct {
	name string
	pts  []geom.Vec3
	link float64
}

// identCatalogs are the catalogs on which Find and FindPeriodic must return
// exactly what the reference finder (fof_ref_test.go) returns.
func identCatalogs() []fofCatalog {
	var cats []fofCatalog
	for _, c := range []struct {
		name string
		n    int
	}{{"clustered-2k", 2000}, {"clustered-20k", 20000}, {"clustered-106k", 106250}} {
		pts := synth.HaloSet(c.n, unitBox, synth.DefaultHaloSpec(), 1)
		cats = append(cats, fofCatalog{c.name, pts, 0.2 * MeanSeparation(pts)})
	}
	rng := rand.New(rand.NewSource(5))
	uniform := make([]geom.Vec3, 20000)
	for i := range uniform {
		uniform[i] = geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
	}
	cats = append(cats, fofCatalog{"uniform-20k", uniform, 0.02})

	// Sites of a 1/16 lattice, 35% filled (just above site percolation),
	// linked at exactly the spacing: every neighbour pair, the pairs
	// through the box faces included, is a tie Norm2 == link².
	var lattice []geom.Vec3
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			for k := 0; k < 16; k++ {
				if rng.Float64() < 0.35 {
					lattice = append(lattice, geom.Vec3{X: float64(i) / 16, Y: float64(j) / 16, Z: float64(k) / 16})
				}
			}
		}
	}
	cats = append(cats, fofCatalog{"lattice-ties", lattice, 1.0 / 16})

	sites := make([]geom.Vec3, 400)
	for i := range sites {
		sites[i] = geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
	}
	dups := make([]geom.Vec3, 3000)
	for i := range dups {
		dups[i] = sites[rng.Intn(len(sites))]
	}
	cats = append(cats, fofCatalog{"duplicates", dups, 0.01})

	zs := []float64{math.Copysign(0, -1), 0, 1e-3, -1e-3, 2e-3}
	zeros := make([]geom.Vec3, 600)
	for i := range zeros {
		zeros[i] = geom.Vec3{X: zs[rng.Intn(len(zs))], Y: zs[rng.Intn(len(zs))], Z: zs[rng.Intn(len(zs))]}
	}
	cats = append(cats, fofCatalog{"signed-zeros", zeros, 1e-3})

	// Blobs across a face, an edge and a corner of the unit box, wrapped
	// into it, over a uniform background.
	var straddle []geom.Vec3
	wrap := func(v float64) float64 { return v - math.Floor(v) }
	for _, c := range []geom.Vec3{{X: 0, Y: 0.5, Z: 0.5}, {X: 0.5, Y: 1, Z: 0}, {X: 1, Y: 1, Z: 1}, {X: 0.3, Y: 0.3, Z: 0.3}} {
		for i := 0; i < 80; i++ {
			straddle = append(straddle, geom.Vec3{
				X: wrap(c.X + 0.004*rng.NormFloat64()),
				Y: wrap(c.Y + 0.004*rng.NormFloat64()),
				Z: wrap(c.Z + 0.004*rng.NormFloat64()),
			})
		}
	}
	for i := 0; i < 500; i++ {
		straddle = append(straddle, geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()})
	}
	cats = append(cats, fofCatalog{"face-straddling", straddle, 0.02})

	// Non-finite particles and a far outlier among clustered ones. The
	// reference finder's box turns NaN and puts every particle in one cell.
	clustered := synth.HaloSet(2000, unitBox, synth.DefaultHaloSpec(), 2)
	nan, inf := math.NaN(), math.Inf(1)
	nonFinite := append(append([]geom.Vec3(nil), clustered...),
		geom.Vec3{X: nan, Y: nan, Z: nan}, geom.Vec3{X: inf, Y: 0.5, Z: 0.5},
		geom.Vec3{X: 0.5, Y: -inf, Z: 0.5}, geom.Vec3{X: 0.5, Y: 0.5, Z: nan},
		geom.Vec3{X: 1e6, Y: 1e6, Z: 1e6}, clustered[7])
	cats = append(cats, fofCatalog{"non-finite", nonFinite, 0.2 * MeanSeparation(clustered)})
	return cats
}

// sameHalos is reflect.DeepEqual, except that centers compare by bits:
// DeepEqual never equates NaN with NaN, and a non-finite particle's own
// group has a NaN center.
func sameHalos(a, b []Halo) bool {
	if reflect.DeepEqual(a, b) {
		return true
	}
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Members, b[i].Members) || a[i].N != b[i].N || !sameBits(a[i].Center, b[i].Center) {
			return false
		}
	}
	return true
}

func TestFindMatchesReference(t *testing.T) {
	for _, c := range identCatalogs() {
		for _, m := range []int{1, 5, 8} {
			if got, want := Find(c.pts, c.link, m), findRef(c.pts, c.link, m); !sameHalos(got, want) {
				t.Errorf("%s, minMembers %d: Find differs from the reference (%d vs %d groups)", c.name, m, len(got), len(want))
			}
			if got, want := FindPeriodic(c.pts, unitBox, c.link, m), findPeriodicRef(c.pts, unitBox, c.link, m); !sameHalos(got, want) {
				t.Errorf("%s, minMembers %d: FindPeriodic differs from the reference (%d vs %d groups)", c.name, m, len(got), len(want))
			}
		}
	}
}

// fuzzLinks are the linking lengths FuzzFOF picks from: the coordinate
// grid's spacings, a link² that underflows, one that overflows, +Inf and
// NaN.
var fuzzLinks = [...]float64{0.05, 0.1, 0.15, 0.25, 1, 1e-300, 1e200, math.Inf(1), math.NaN()}

// fuzzCoord maps one byte to a coordinate: most bytes to a 0.05 grid plus
// a 0.01 step (exact and rounded ties, duplicates), the rest to −0, NaN,
// ±Inf and outliers, the largest of which overflow the box extent.
func fuzzCoord(b byte) float64 {
	switch b {
	case 255:
		return math.NaN()
	case 254:
		return math.Inf(1)
	case 253:
		return math.Inf(-1)
	case 252:
		return math.Copysign(0, -1)
	case 251:
		return 1e6
	case 250:
		return -1e300
	case 249:
		return math.MaxFloat64
	}
	return float64(b%50)*0.05 + float64(b/50)*0.01
}

// decodeFOF reads a link (byte 0), a minimum group size 1–8 (byte 1) and
// then up to 64 particles of three coordinate bytes each.
func decodeFOF(data []byte) (link float64, minMembers int, pts []geom.Vec3) {
	link, minMembers = fuzzLinks[0], 1
	if len(data) >= 2 {
		link, minMembers = fuzzLinks[int(data[0])%len(fuzzLinks)], int(data[1]%8)+1
		data = data[2:]
	}
	for ; len(data) >= 3 && len(pts) < 64; data = data[3:] {
		pts = append(pts, geom.Vec3{X: fuzzCoord(data[0]), Y: fuzzCoord(data[1]), Z: fuzzCoord(data[2])})
	}
	return link, minMembers, pts
}

func fofSeed(link, minMembers byte, coords ...byte) []byte {
	return append([]byte{link, minMembers}, coords...)
}

// FuzzFOF checks Find against the O(n²) bruteFOF, group for group, on
// decoded catalogs of up to 64 particles.
func FuzzFOF(f *testing.F) {
	// A row and a plane of 0.1-spaced sites linked at 0.1 (rounded ties).
	f.Add(fofSeed(1, 0, 0, 0, 0, 2, 0, 0, 4, 0, 0, 6, 0, 0, 8, 0, 0, 0, 2, 0, 2, 2, 0, 0, 4, 0))
	// Exact ties: sites 0.25 apart linked at 0.25.
	f.Add(fofSeed(3, 1, 0, 0, 0, 5, 0, 0, 10, 0, 0, 10, 5, 0, 10, 5, 5))
	// Duplicates, and −0 beside +0.
	f.Add(fofSeed(0, 1, 7, 7, 7, 7, 7, 7, 7, 7, 7, 252, 0, 0, 0, 252, 0, 0, 0, 252, 252, 252, 252))
	// Non-finite particles and outliers among linked ones.
	f.Add(fofSeed(2, 0, 255, 255, 255, 0, 0, 0, 1, 0, 0, 254, 0, 0, 253, 1, 0, 251, 251, 251, 250, 0, 0, 249, 0, 0, 1, 1, 0))
	// Infinite link² (an infinite coordinate then links to what it is not
	// NaN away from), underflowing link², NaN link.
	for _, l := range []byte{6, 7, 8} {
		f.Add(fofSeed(l, 0, 0, 0, 0, 49, 49, 49, 250, 0, 0, 249, 0, 0, 0, 0, 0, 252, 0, 0, 253, 0, 0, 254, 254, 0, 254, 1, 0))
	}
	// Groups on both sides of the grid's extent, sized around minMembers.
	f.Add(fofSeed(0, 4, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 49, 49, 49, 48, 49, 49, 49, 48, 49, 49, 49, 48))
	f.Fuzz(func(t *testing.T, data []byte) {
		link, minMembers, pts := decodeFOF(data)
		checkBrute(t, pts, link, minMembers)
	})
}
