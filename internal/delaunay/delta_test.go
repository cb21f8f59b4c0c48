package delaunay

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"godtfe/internal/geom"
	"godtfe/internal/geomerr"
)

// applyOracle computes the edited point set the way ApplyDelta documents
// it: surviving points in order, then the additions.
func applyOracle(pts []geom.Vec3, d Delta) []geom.Vec3 {
	rm := make(map[int]bool, len(d.Remove))
	for _, r := range d.Remove {
		rm[r] = true
	}
	out := make([]geom.Vec3, 0, len(pts)-len(rm)+len(d.Add))
	for i, p := range pts {
		if !rm[i] {
			out = append(out, p)
		}
	}
	return append(out, d.Add...)
}

// churnDelta builds a deterministic delta removing and adding frac·n
// points. Removal indices are drawn uniformly; added points land inside
// the unit box so catalogs with box-spanning extremes keep their bounds.
func churnDelta(pts []geom.Vec3, frac float64, seed int64) Delta {
	rng := rand.New(rand.NewSource(seed))
	k := int(frac * float64(len(pts)))
	if k < 1 {
		k = 1
	}
	perm := rng.Perm(len(pts))
	d := Delta{Remove: append([]int(nil), perm[:k]...)}
	for i := 0; i < k; i++ {
		d.Add = append(d.Add, geom.Vec3{
			X: 0.05 + 0.9*rng.Float64(),
			Y: 0.05 + 0.9*rng.Float64(),
			Z: 0.05 + 0.9*rng.Float64(),
		})
	}
	return d
}

// requireDeltaMatches applies d incrementally and compares against the
// from-scratch oracle build of the edited point set. Returns the updated
// triangulation (for interleaved scripts) and its point set.
func requireDeltaMatches(t *testing.T, tri *Triangulation, pts []geom.Vec3, d Delta) (*Triangulation, []geom.Vec3, *DeltaStats) {
	t.Helper()
	final := applyOracle(pts, d)
	got, st, err := tri.ApplyDelta(d)
	want, werr := New(final)
	if werr != nil {
		if err == nil {
			t.Fatalf("oracle rejected the edited set (%v) but ApplyDelta accepted it", werr)
		}
		return nil, nil, nil
	}
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if verr := got.Validate(); verr != nil {
		t.Fatalf("updated triangulation invalid: %v", verr)
	}
	requireTriEqual(t, want, got)
	return got, final, st
}

// TestDeltaMatchesRebuild is the differential spine: across catalog
// regimes × churn fractions, an incremental update must be deeply equal
// to a from-scratch build of the same point set.
func TestDeltaMatchesRebuild(t *testing.T) {
	for name, pts := range testCatalogSet(700) {
		for _, churn := range []float64{0.01, 0.10} {
			churn := churn
			pts := pts
			t.Run(name+sprintPct(churn), func(t *testing.T) {
				t.Parallel()
				tri, err := New(pts)
				if err != nil {
					t.Fatal(err)
				}
				d := churnDelta(pts, churn, int64(len(name))*1000+int64(churn*100))
				requireDeltaMatches(t, tri, pts, d)
			})
		}
	}
}

func sprintPct(f float64) string {
	if f < 0.05 {
		return "/1pct"
	}
	return "/10pct"
}

// TestDeltaInterleavedScripts chains updates: remove-only, insert-only,
// and mixed deltas applied in sequence, each state checked against the
// oracle. This is the "incremental state is always a pure function of the
// surviving point set" contract — no drift across generations.
func TestDeltaInterleavedScripts(t *testing.T) {
	for _, name := range []string{"clustered", "lattice", "dirty"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			pts := testCatalogSet(600)[name]
			tri, err := New(pts)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(4242))
			for step := 0; step < 6; step++ {
				var d Delta
				switch step % 3 {
				case 0: // removals only
					perm := rng.Perm(len(pts))
					d.Remove = append([]int(nil), perm[:len(pts)/50+1]...)
				case 1: // insertions only, including an exact duplicate
					for i := 0; i < len(pts)/50+1; i++ {
						d.Add = append(d.Add, geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()})
					}
					d.Add = append(d.Add, pts[rng.Intn(len(pts))])
				default: // interleaved insert/remove
					d = churnDelta(pts, 0.03, int64(step))
				}
				tri, pts, _ = requireDeltaMatches(t, tri, pts, d)
				if tri == nil {
					t.Fatalf("step %d: edited set became degenerate", step)
				}
			}
		})
	}
}

// TestDeltaStarRepairPath pins that interior removals actually take the
// local star re-triangulation path rather than silently falling back to
// full rebuilds (which would pass the differential check while making the
// bench claim meaningless).
func TestDeltaStarRepairPath(t *testing.T) {
	pts := randomCatalog(800, 3)
	tri, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	// Remove points well inside the box: almost surely interior vertices.
	var d Delta
	for i, p := range pts {
		if p.X > 0.3 && p.X < 0.7 && p.Y > 0.3 && p.Y < 0.7 && p.Z > 0.3 && p.Z < 0.7 {
			d.Remove = append(d.Remove, i)
			if len(d.Remove) == 20 {
				break
			}
		}
	}
	if len(d.Remove) < 5 {
		t.Fatalf("catalog too sparse in the core: %d interior candidates", len(d.Remove))
	}
	_, _, st := requireDeltaMatches(t, tri, pts, d)
	if st.Rebuilds != 0 {
		t.Fatalf("interior removals fell back to a full rebuild: %+v", st)
	}
	if st.StarRepairs == 0 {
		t.Fatalf("expected star repairs for interior removals: %+v", st)
	}
	if st.DirtyAll {
		t.Fatalf("interior removals should yield a bounded dirty region: %+v", st)
	}
	if len(st.DirtyX) == 0 {
		t.Fatalf("dirty region empty after %d removals", len(d.Remove))
	}
}

// TestDeltaHullVertexRemoval removes convex-hull vertices (including a
// bounding-box corner). The symbolic-infinite-vertex link triangulation
// must handle the outer wedges — or fall back to a rebuild — and either
// way match the oracle; removing an extreme point must dirty everything
// (the render epsilon is bbox-derived).
func TestDeltaHullVertexRemoval(t *testing.T) {
	pts := randomCatalog(500, 9)
	pts = append(pts, geom.Vec3{X: 2, Y: 2, Z: 2}) // strict bbox corner
	tri, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	hull := make(map[int32]bool)
	for _, hf := range tri.HullFaces() {
		for _, v := range hf.V {
			hull[v] = true
		}
	}
	var d Delta
	d.Remove = append(d.Remove, len(pts)-1) // the corner
	for v := range hull {
		if int(v) != len(pts)-1 {
			d.Remove = append(d.Remove, int(v))
			if len(d.Remove) == 6 {
				break
			}
		}
	}
	_, _, st := requireDeltaMatches(t, tri, pts, d)
	if !st.DirtyAll {
		t.Fatalf("bbox-shrinking removal must dirty everything: %+v", st)
	}
}

// TestDeltaDuplicateSemantics exercises the duplicate bookkeeping:
// removing a duplicate member, removing a canonical with survivors
// (relabel promotion), removing a whole group, and re-adding a removed
// coordinate.
func TestDeltaDuplicateSemantics(t *testing.T) {
	base := randomCatalog(300, 5)
	dupA := base[10]
	dupB := base[20]
	pts := append(append([]geom.Vec3(nil), base...), dupA, dupA, dupB)
	tri, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	iA1, iA2 := len(base), len(base)+1
	iB1 := len(base) + 2

	cases := []struct {
		name string
		d    Delta
	}{
		{"remove-dup-member", Delta{Remove: []int{iA1}}},
		{"remove-canonical-promote", Delta{Remove: []int{10}}},
		{"remove-whole-group", Delta{Remove: []int{10, iA1, iA2}}},
		{"remove-group-and-readd", Delta{Remove: []int{20, iB1}, Add: []geom.Vec3{dupB, dupB}}},
		{"add-dup-of-existing", Delta{Add: []geom.Vec3{base[30], base[30]}}},
		{"insert-then-remove-canonical", Delta{Remove: []int{30}, Add: []geom.Vec3{base[30]}}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			requireDeltaMatches(t, tri, pts, tc.d)
		})
	}
}

// TestDeltaEmptyAndErrors: a no-op delta reproduces the canonical state;
// malformed deltas are rejected with the typed taxonomy.
func TestDeltaEmptyAndErrors(t *testing.T) {
	pts := clusteredPoints(200, 1)
	tri, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := tri.ApplyDelta(Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if st.DirtyAll || len(st.DirtyX) != 0 {
		t.Fatalf("no-op delta dirtied the plane: %+v", st)
	}
	requireTriEqual(t, tri, got)

	for _, bad := range []Delta{
		{Remove: []int{-1}},
		{Remove: []int{len(pts)}},
		{Remove: []int{3, 3}},
		{Add: []geom.Vec3{{X: math.NaN()}}},
	} {
		if _, _, err := tri.ApplyDelta(bad); !errors.Is(err, geomerr.ErrDegenerateInput) {
			t.Fatalf("delta %+v: want ErrDegenerateInput, got %v", bad, err)
		}
	}
	// Shrinking below four points must fail like New would.
	small, err := New([]geom.Vec3{{}, {X: 1}, {Y: 1}, {Z: 1}, {X: 1, Y: 1, Z: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := small.ApplyDelta(Delta{Remove: []int{0, 1}}); !errors.Is(err, geomerr.ErrDegenerateInput) {
		t.Fatalf("want ErrDegenerateInput for 3-point result, got %v", err)
	}
}

// TestDeltaReceiverUntouched: ApplyDelta is copy-on-write — the receiver
// must stay deeply equal to a fresh build of its own point set after the
// update, and its Points() slice must be physically unshared with the
// update's.
func TestDeltaReceiverUntouched(t *testing.T) {
	pts := dirtyCatalog(500, 17)
	tri, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	d := churnDelta(pts, 0.10, 77)
	upd, _, err := tri.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(upd.Points()) > 0 && len(tri.Points()) > 0 && &upd.Points()[0] == &tri.Points()[0] {
		t.Fatal("updated triangulation shares its points array with the receiver")
	}
	want, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	requireTriEqual(t, want, tri)
}

// TestDirtyIntervals: the merge and the overlap query the column cache's
// invalidation rests on — closed intervals, so touching ones merge and a
// range ending where an interval starts is dirty — and the collapse to one
// span past maxDirtyIntervals, which may only coarsen.
func TestDirtyIntervals(t *testing.T) {
	if got := mergeIntervals(nil); got == nil || len(got) != 0 {
		t.Fatalf("no intervals: %#v, want empty and non-nil", got)
	}
	got := mergeIntervals([]XInterval{{5, 6}, {0, 1}, {1, 2}, {0.5, 0.75}, {8, 9}})
	if want := []XInterval{{0, 2}, {5, 6}, {8, 9}}; !slices.Equal(got, want) {
		t.Fatalf("merged %v, want %v", got, want)
	}
	var many []XInterval
	for i := maxDirtyIntervals; i >= 0; i-- {
		many = append(many, XInterval{float64(2 * i), float64(2*i + 1)})
	}
	if got := mergeIntervals(many); !slices.Equal(got, []XInterval{{0, 2*maxDirtyIntervals + 1}}) {
		t.Fatalf("%d disjoint intervals: %v, want their span", maxDirtyIntervals+1, got)
	}

	st := &DeltaStats{DirtyX: []XInterval{{0, 2}, {5, 6}}}
	for _, q := range []struct {
		lo, hi float64
		want   bool
	}{{-1, -0.5, false}, {-1, 0, true}, {2, 3, true}, {2.5, 4.5, false}, {4, 7, true}, {5.2, 5.4, true}, {6.5, 9, false}} {
		if got := st.DirtyIntersects(q.lo, q.hi); got != q.want {
			t.Errorf("DirtyIntersects(%v, %v) = %v on %v", q.lo, q.hi, got, st.DirtyX)
		}
	}
	if !(&DeltaStats{DirtyAll: true}).DirtyIntersects(3, 4) {
		t.Error("DirtyAll must intersect every range")
	}
}
