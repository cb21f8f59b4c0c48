package delaunay

import (
	"math"
	"slices"
	"testing"

	"godtfe/internal/geom"
)

// orderCatalogSet is what the rounds could get wrong, for the
// order-independence and compaction suites: duplicates whose indices an
// index hash would deal into different rounds, points equal under == but
// not bit for bit, a lattice small enough that the first rounds are a few
// cospherical points, a catalog under brioMinPoints, and the seam catalog
// (a cospherical sheet with mirror and coincident pairs on one plane).
func orderCatalogSet() map[string][]geom.Vec3 {
	// Every point of the first third again in the last third, reversed.
	dups := randomCatalog(900, 21)
	for i := 0; i < 300; i++ {
		dups[899-i] = dups[i]
	}
	// Forty pairs equal but for the sign of a zero coordinate, the -0 of
	// each pair first in half of them. Unfolded, their hashes differ, the
	// pair straddles two rounds about two times in five, and whichever
	// round is smaller — not the lower index — becomes canonical.
	zeros := randomCatalog(300, 22)
	negZero := math.Copysign(0, -1)
	for i := 0; i < 40; i++ {
		p := geom.Vec3{X: 0, Y: float64(i%7) / 8, Z: float64(i) / 64}
		q := p
		q.X = negZero
		if i%3 == 1 {
			p.Y, q.Y = 0, negZero
		}
		if i%2 == 0 {
			p, q = q, p
		}
		zeros[2*i], zeros[299-2*i] = p, q
	}
	small := randomCatalog(40, 23)
	small[31] = small[2]
	return map[string][]geom.Vec3{
		"dups":     dups,
		"zeros":    zeros,
		"lattice6": latticeCatalog(216),
		"small":    small,
		"seam":     seamCatalog(),
	}
}

// TestBrioOrder: the order is a permutation in rounds, each Hilbert-sorted,
// smallest first; equal points share a round in ascending index order; and
// under brioMinPoints it is the Hilbert order itself.
func TestBrioOrder(t *testing.T) {
	cats := orderCatalogSet()
	cats["clustered"] = clusteredPoints(5000, 2)
	for name, pts := range cats {
		order := brioOrder(pts)
		hilbert := geom.HilbertOrder(pts)
		pos := make([]int, len(pts)) // 1 + position in the order
		for k, i := range order {
			pos[i] = k + 1
		}
		if len(order) != len(pts) || slices.Contains(pos, 0) {
			t.Fatalf("%s: not a permutation of the points", name)
		}
		if len(pts) < brioMinPoints {
			if !slices.Equal(order, hilbert) {
				t.Errorf("%s: %d points, want the Hilbert order untouched", name, len(pts))
			}
			continue
		}
		rank := make([]int, len(pts)) // position along the curve
		for k, i := range hilbert {
			rank[i] = k
		}
		var rounds []int // sizes: a round ends where the curve position drops
		size := 0
		for k, i := range order {
			if k > 0 && rank[i] < rank[order[k-1]] {
				rounds = append(rounds, size)
				size = 0
			}
			size++
		}
		rounds = append(rounds, size)
		if len(rounds) < 2 || !slices.IsSorted(rounds) || rounds[len(rounds)-1] < len(pts)/2 {
			t.Errorf("%s: round sizes %v, want growing rounds with most points in the last", name, rounds)
		}
		first := map[geom.Vec3]int{}
		for i, p := range pts {
			for _, c := range []*float64{&p.X, &p.Y, &p.Z} {
				if *c == 0 {
					*c = 0 // the map key is bitwise; fold -0 as == does
				}
			}
			j, seen := first[p]
			if !seen {
				first[p] = i
				continue
			}
			if pos[j] > pos[i] {
				t.Fatalf("%s: point %d is inserted before its equal %d", name, i, j)
			}
			if coordHash(pts[i]) != coordHash(pts[j]) {
				t.Fatalf("%s: equal points %d and %d hash apart", name, j, i)
			}
		}
	}
}

// TestBuildStatsPinsInsertCost is the insertion order's regression test, in
// counts, not seconds: on a fixed clustered catalog the rounds must keep
// the conflict tests and the tets created per insert under what one
// Hilbert sweep through all the points costs (55.3 and 33.0 here; 43.7 and
// 26.8 in rounds). The counters themselves are checked against the pool
// they describe, and must survive compact().
func TestBuildStatsPinsInsertCost(t *testing.T) {
	pts := clusteredPoints(20000, 1)
	raw, err := buildRaw(pts, true)
	if err != nil {
		t.Fatal(err)
	}
	s := raw.BuildStats()
	if live := int64(len(raw.tets) - len(raw.free)); live != 5+s.NewTets-s.CavityTets {
		t.Errorf("%d live tets, but the first five + %d created - %d killed", live, s.NewTets, s.CavityTets)
	}
	if s.Inserts != int64(raw.insertedCount-4) || s.WalkSteps < s.Inserts || s.ConflictTests < s.CavityTets {
		t.Errorf("inconsistent counters %+v for %d inserted points", s, raw.insertedCount)
	}
	if tests, created := float64(s.ConflictTests)/float64(s.Inserts), float64(s.NewTets)/float64(s.Inserts); tests > 46 || created > 28.5 {
		t.Errorf("%.1f conflict tests and %.1f new tets per insert, want at most 46 and 28.5 (%v)", tests, created, s)
	}
	raw.compact()
	if raw.BuildStats() != s {
		t.Errorf("compact() changed the counters: %+v, were %+v", raw.BuildStats(), s)
	}

	in, err := buildRaw(pts, false)
	if err != nil {
		t.Fatal(err)
	}
	if is := in.BuildStats(); is.Inserts != s.Inserts || is.NewTets-is.CavityTets != s.NewTets-s.CavityTets {
		t.Errorf("input order: %+v, BRIO: %+v: same mesh, so same inserts and same net tets", is, s)
	}
}

// TestInputOrderExactCallsPinned: the stage-1 InSphere filter may only skip
// work. NewInputOrder's insertion order is the parent commit's, so its
// exact-predicate calls on a fixed lattice and a fixed snapped catalog must
// be, to the call, what they were before the filter existed.
func TestInputOrderExactCallsPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		pts  []geom.Vec3
		want uint64
	}{
		{"lattice 27^3", latticeCatalog(20000), 1306539},
		{"snapped 20k", snappedCatalog(20000, 5), 244949},
	} {
		before := geom.ExactCalls.Load()
		if _, err := NewInputOrder(c.pts); err != nil {
			t.Fatal(err)
		}
		if got := geom.ExactCalls.Load() - before; got != c.want {
			t.Errorf("%s: %d exact predicate calls, %d before the stage-1 filter", c.name, got, c.want)
		}
	}
}

// TestLatticeExactCallsNoWorse: a lattice build in rounds reaches the exact
// tiers no more often than the single Hilbert sweep did (606 909 calls on
// this catalog).
func TestLatticeExactCallsNoWorse(t *testing.T) {
	before := geom.ExactCalls.Load()
	if _, err := New(latticeCatalog(20000)); err != nil {
		t.Fatal(err)
	}
	if got := geom.ExactCalls.Load() - before; got > 606909 {
		t.Errorf("%d exact predicate calls on the 27^3 lattice, 606909 before the rounds", got)
	}
}
