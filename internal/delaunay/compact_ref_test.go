package delaunay

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"godtfe/internal/geom"
)

// The compaction pass as it was before the radix sort — twelve-permutation
// canonicalize, Hilbert keys in a per-slot array, comparison sort through
// it — kept verbatim but for the Ref suffixes, as the oracle for compact().
// geom.HilbertKey itself is pinned to the Skilling transpose it replaced
// by TestHilbertKeyMatchesSkilling in internal/geom.

var evenPermsRef [][4]int

func init() {
	idx := [4]int{0, 1, 2, 3}
	var rec func(k int, cur [4]int, used [4]bool)
	rec = func(k int, cur [4]int, used [4]bool) {
		if k == 4 {
			// Count inversions: keep even permutations only.
			inv := 0
			for i := 0; i < 4; i++ {
				for j := i + 1; j < 4; j++ {
					if cur[i] > cur[j] {
						inv++
					}
				}
			}
			if inv%2 == 0 {
				evenPermsRef = append(evenPermsRef, cur)
			}
			return
		}
		for _, v := range idx {
			if !used[v] {
				used[v] = true
				cur[k] = v
				rec(k+1, cur, used)
				used[v] = false
			}
		}
	}
	rec(0, [4]int{}, [4]bool{})
}

func canonicalizeRef(tet *Tet) {
	best := 0
	for pi := 1; pi < len(evenPermsRef); pi++ {
		p, q := evenPermsRef[pi], evenPermsRef[best]
		for k := 0; k < 4; k++ {
			a, b := tet.V[p[k]], tet.V[q[k]]
			if a != b {
				if a < b {
					best = pi
				}
				break
			}
		}
	}
	if best == 0 {
		return // identity permutation is evenPermsRef[0]
	}
	p := evenPermsRef[best]
	v, n := tet.V, tet.N
	for k := 0; k < 4; k++ {
		tet.V[k] = v[p[k]]
		tet.N[k] = n[p[k]]
	}
}

func (t *Triangulation) compactRef() {
	relabelRef(t)
	box := geom.BoundsOf(t.pts)

	var finite, infinite []int32
	for i := range t.tets {
		if t.dead[i] {
			continue
		}
		canonicalizeRef(&t.tets[i])
		if t.tets[i].V[0] == Inf {
			infinite = append(infinite, int32(i))
		} else {
			finite = append(finite, int32(i))
		}
	}

	// Hilbert key of each finite tet's barycenter, computed in canonical
	// slot order so the FP sum is deterministic.
	keys := make([]uint64, len(t.tets))
	for _, ti := range finite {
		v := &t.tets[ti].V
		p0, p1, p2, p3 := t.pts[v[0]], t.pts[v[1]], t.pts[v[2]], t.pts[v[3]]
		bc := geom.Vec3{
			X: (p0.X + p1.X + p2.X + p3.X) * 0.25,
			Y: (p0.Y + p1.Y + p2.Y + p3.Y) * 0.25,
			Z: (p0.Z + p1.Z + p2.Z + p3.Z) * 0.25,
		}
		keys[ti] = geom.HilbertKey(bc, box)
	}
	vCmp := func(a, b int32) int {
		va, vb := &t.tets[a].V, &t.tets[b].V
		for k := 0; k < 4; k++ {
			if va[k] != vb[k] {
				if va[k] < vb[k] {
					return -1
				}
				return 1
			}
		}
		return 0 // distinct live tets never share all four vertices
	}
	slices.SortFunc(finite, func(a, b int32) int {
		if keys[a] != keys[b] {
			if keys[a] < keys[b] {
				return -1
			}
			return 1
		}
		return vCmp(a, b)
	})
	slices.SortFunc(infinite, vCmp)

	perm := make([]int32, len(t.tets)) // old index -> new index
	order := make([]int32, 0, len(finite)+len(infinite))
	order = append(order, finite...)
	order = append(order, infinite...)
	for newIdx, oldIdx := range order {
		perm[oldIdx] = int32(newIdx)
	}

	newTets := make([]Tet, len(order))
	for newIdx, oldIdx := range order {
		tt := t.tets[oldIdx]
		for k := 0; k < 4; k++ {
			tt.N[k] = perm[tt.N[k]] // neighbors are always live
		}
		newTets[newIdx] = tt
	}
	t.tets = newTets
	t.dead = make([]bool, len(newTets))
	t.free = nil

	for v := range t.vertTet {
		t.vertTet[v] = NoTet
	}
	for i := range t.tets {
		for _, v := range t.tets[i].V {
			if v != Inf && t.vertTet[v] == NoTet {
				t.vertTet[v] = int32(i)
			}
		}
	}

	t.cmark = make([]int32, len(newTets))
	t.epoch = 0
	t.last = 0
	t.rng = 0x9e3779b97f4a7c15
	t.cavity = nil
	t.border = nil
	t.stack = nil
	t.faceTab = flatFaceTable{}
}

// relabelRef gives a pool built over an insertion-ordered copy of the
// points its input labels and points back, so that compactRef sees the
// pool the build once made directly.
func relabelRef(t *Triangulation) {
	if t.ids == nil {
		return
	}
	for i := range t.tets {
		if t.dead[i] {
			continue
		}
		for k, u := range t.tets[i].V {
			if u != Inf {
				t.tets[i].V[k] = t.ids[u]
			}
		}
	}
	dup := make([]int32, len(t.dupOf))
	for k, c := range t.dupOf {
		dup[t.ids[k]] = t.ids[c]
	}
	t.dupOf, t.pts, t.ids, t.input = dup, t.input, nil, nil
}

// normalizeRef brings a reference-compacted triangulation to the present
// layout: the exposed triangulation no longer carries insert scratch, and
// it records its finite-tet count.
func normalizeRef(t *Triangulation) {
	t.cmark = nil
	t.finite = 0
	for i := range t.tets {
		if t.tets[i].V[0] != Inf {
			t.finite++
		}
	}
}

// cloneRaw copies an uncompacted build so that it can be compacted twice,
// labels of an insertion-ordered build included.
func cloneRaw(t *Triangulation) *Triangulation {
	c := t.cloneForDelta()
	c.epoch = t.epoch
	c.ids, c.input = slices.Clone(t.ids), t.input
	return c
}

// scatterPool moves the live tets of a raw build to random slots of a pool
// half again as large, so that dead slots lie everywhere — below the live
// count, where the in-place permutation's chains start, and live ones
// beyond it, where they end — as they do after ApplyDelta's surgery.
func scatterPool(t *Triangulation, seed int64) *Triangulation {
	c := cloneRaw(t)
	slots := len(t.tets) + len(t.tets)/2
	to := rand.New(rand.NewSource(seed)).Perm(slots)[:len(t.tets)]
	c.tets = make([]Tet, slots)
	c.dead = make([]bool, slots)
	c.cmark = make([]int32, slots)
	for i := range c.dead {
		c.dead[i] = true
	}
	for i, tt := range t.tets {
		if t.dead[i] {
			continue
		}
		for k := range tt.N {
			tt.N[k] = int32(to[tt.N[k]])
		}
		c.tets[to[i]] = tt
		c.dead[to[i]] = false
	}
	c.free = c.free[:0]
	for i, d := range c.dead {
		if d {
			c.free = append(c.free, int32(i))
		}
	}
	return c
}

// squeezedCatalog puts all but eight points into a cube 10^-4 of the box
// wide — less than one Hilbert cell — so that hundreds of tets share a
// key and the order within a run is the vertex-quadruple tie rule's.
func squeezedCatalog(n int, seed int64) []geom.Vec3 {
	pts := randomCatalog(n, seed)
	for i := range pts[8:] {
		p := &pts[8+i]
		p.X, p.Y, p.Z = 0.4+1e-4*p.X, 0.4+1e-4*p.Y, 0.4+1e-4*p.Z
	}
	for i := range pts[:8] {
		pts[i] = geom.Vec3{X: float64(i & 1), Y: float64(i >> 1 & 1), Z: float64(i >> 2 & 1)}
	}
	return pts
}

// TestCanonicalizeMatchesReference: minimum slot plus face rotation picks
// the same permutation as the scan over all twelve, for every arrangement
// of a finite and an infinite vertex set, neighbours carried along.
func TestCanonicalizeMatchesReference(t *testing.T) {
	for _, vs := range [][4]int32{{2, 3, 7, 9}, {Inf, 3, 7, 9}, {0, 1, 2, 3}} {
		for _, p := range evenPermsRef {
			for _, swap := range []bool{false, true} {
				a := Tet{}
				for k := 0; k < 4; k++ {
					a.V[k], a.N[k] = vs[p[k]], 100+vs[p[k]]
				}
				if swap { // the odd arrangements: canonicalize is defined on any quadruple
					a.V[2], a.V[3] = a.V[3], a.V[2]
					a.N[2], a.N[3] = a.N[3], a.N[2]
				}
				b := a
				canonicalize(&a)
				canonicalizeRef(&b)
				if a != b {
					t.Fatalf("verts %v perm %v swap %v: got %+v, reference %+v", vs, p, swap, a, b)
				}
			}
		}
	}
}

// TestCompactMatchesReference compacts the same raw pools — built in
// BRIO and in input order, as built and scattered over a pool full of
// holes — with compact() on both sides of the packed-index bound and with
// the reference, and requires deeply equal results. New, NewInputOrder
// and ApplyDelta all end in compact() and are asserted equal to one
// another by the differential suites, so this pins all three to the
// reference's output.
func TestCompactMatchesReference(t *testing.T) {
	cats := testCatalogSet(1500)
	cats["squeezed"] = squeezedCatalog(1500, 3)
	cats["tiny"] = randomCatalog(5, 4)
	maps.Copy(cats, orderCatalogSet())
	for name, pts := range cats {
		for _, brio := range []bool{true, false} {
			raw, err := buildRaw(pts, brio)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := cloneRaw(raw)
			want.compactRef()
			normalizeRef(want)
			for _, limit := range []int{maxRadixSlots, 0} {
				for _, got := range []*Triangulation{cloneRaw(raw), scatterPool(raw, 6)} {
					saved := maxRadixSlots
					maxRadixSlots = limit
					got.compact()
					maxRadixSlots = saved
					if !meshEqual(want, got) {
						requireTriEqual(t, want, got)
						t.Fatalf("%s brio=%v limit=%d: compact() differs from the reference", name, brio, limit)
					}
				}
			}
			if name == "squeezed" && brio {
				box := geom.BoundsOf(pts)
				shared := 0
				for i := 1; i < want.finite; i++ {
					if want.barycenterKey(int32(i), box) == want.barycenterKey(int32(i-1), box) {
						shared++
					}
				}
				if shared < 200 {
					t.Errorf("squeezed catalog: only %d tets share a cell with their predecessor", shared)
				}
			}
			st := want.Stats()
			dups := 0
			for i, d := range want.dupOf {
				if d != int32(i) {
					dups++
				}
			}
			if st.Duplicates != dups || st.FiniteTets != want.finite || st.FiniteTets+st.HullFacets != len(want.tets) {
				t.Errorf("%s: Stats %+v, counted %d duplicates, %d finite of %d tets", name, st, dups, want.finite, len(want.tets))
			}
		}
	}
}

// TestCompactAllocs pins compact()'s allocations to the one buffer that
// holds both halves of the radix sort: order and permutation live in the
// spent insert scratch and the pool is permuted in place. Anything more is
// pool churn creeping back. It also pins buildRaw's one-time pool sizing.
func TestCompactAllocs(t *testing.T) {
	raw, err := buildRaw(clusteredPoints(3000, 8), true)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 5
	clones := make([]*Triangulation, runs+1) // AllocsPerRun warms up once
	for i := range clones {
		clones[i] = cloneRaw(raw)
	}
	next := 0
	if got := testing.AllocsPerRun(runs, func() {
		clones[next].compact()
		next++
	}); got > 1 {
		t.Errorf("compact() made %v allocations, want at most 1", got)
	}
	if tets, slots := len(raw.tets), 7*len(raw.pts)+64; tets > slots {
		t.Errorf("raw build used %d slots, buildRaw sized the pool for %d", tets, slots)
	}
}

// BenchmarkCompact times the compaction pass alone on a prebuilt raw mesh
// (cloned outside the timer: compact() consumes its input).
func BenchmarkCompact(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(sizeName(n), func(b *testing.B) {
			if n > 10_000 && testing.Short() {
				b.Skip("100k build skipped in -short mode")
			}
			raw, err := buildRaw(clusteredPoints(n, 1), true)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := cloneRaw(raw)
				b.StartTimer()
				c.compact()
			}
		})
	}
}
