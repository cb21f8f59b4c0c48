package delaunay

import (
	"math"
	"math/bits"

	"godtfe/internal/geom"
)

// Biased randomized insertion order (Amenta, Choi & Rote 2003), the order
// CGAL's spatial sort feeds its triangulations: the points are dealt into
// rounds of geometrically growing size, each round inserted along the
// Hilbert curve. Inserted along one curve through all the points, every
// point lands at the frontier of the mesh built so far — between a dense
// side and nothing, so its cavity is a fan of slivers reaching into the
// empty side. Inserted in rounds, the first few hundred points already
// span the box and every later round refines a mesh that surrounds its
// points: fewer conflict tests, fewer tets killed and created per insert,
// for the same walk length. compact() makes the result a function of the
// point set alone, so the order changes the work and never the mesh.

// brioRatioBits is the share of a round's points the next smaller round
// gets, as a power of two: 2 bits, a quarter. An eighth measures the same
// and a half walks 8% longer; there is nothing to tune per catalog.
const brioRatioBits = 2

// brioMinPoints is the size below which the rounds are skipped: the
// smallest round would be a handful of points and the whole build is a few
// hundred tets.
const brioMinPoints = 64

// brioOrder returns the insertion order of pts: the Hilbert order, stably
// partitioned into rounds, smallest first. A point's round comes from a
// hash of its coordinate values, so equal points share a round and stay in
// ascending index order there — the lowest-index duplicate is still the
// first inserted, which is the rule dupOf and ApplyDelta's relabelling
// both rest on.
func brioOrder(pts []geom.Vec3) []int {
	order := geom.HilbertOrder(pts)
	n := len(pts)
	if n < brioMinPoints {
		return order
	}
	// Rounds 0..last, inserted in that order; round 0 expects n/4^last
	// points, between 16 and 64.
	last := (bits.Len(uint(n)) - 5) / brioRatioBits
	round := func(i int) int {
		// A uniform word has at least 2k leading zero bits with
		// probability 4^-k: k rounds before the last, largest one.
		return last - min(bits.LeadingZeros64(coordHash(pts[i]))/brioRatioBits, last)
	}
	start := make([]int, last+2) // start[r]: where round r's next point goes
	for _, i := range order {
		start[round(i)+1]++
	}
	for r := 1; r <= last; r++ {
		start[r] += start[r-1]
	}
	out := make([]int, n)
	for _, i := range order {
		r := round(i)
		out[start[r]] = i
		start[r]++
	}
	return out
}

// coordHash mixes the three coordinate values into one well-distributed
// word (splitmix64's finalizer between the coordinates). +0 and -0 are
// equal as points, so they hash alike.
func coordHash(p geom.Vec3) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, c := range [3]float64{p.X, p.Y, p.Z} {
		if c == 0 {
			c = 0 // folds -0
		}
		h ^= math.Float64bits(c)
		h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
		h = (h ^ h>>27) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}
