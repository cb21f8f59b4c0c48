package delaunay

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"godtfe/internal/geom"
)

func randPoints(n int, seed int64) []geom.Vec3 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vec3, n)
	for i := range pts {
		pts[i] = geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
	}
	return pts
}

func clusteredPoints(n int, seed int64) []geom.Vec3 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vec3, 0, n)
	// A few gaussian blobs plus a uniform background.
	nBlobs := 4
	centers := make([]geom.Vec3, nBlobs)
	for i := range centers {
		centers[i] = geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
	}
	for len(pts) < n {
		if rng.Float64() < 0.7 {
			c := centers[rng.Intn(nBlobs)]
			pts = append(pts, geom.Vec3{
				X: c.X + 0.03*rng.NormFloat64(),
				Y: c.Y + 0.03*rng.NormFloat64(),
				Z: c.Z + 0.03*rng.NormFloat64(),
			})
		} else {
			pts = append(pts, geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()})
		}
	}
	return pts
}

func buildOrFatal(t *testing.T, pts []geom.Vec3) *Triangulation {
	t.Helper()
	tri, err := New(pts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tri
}

func TestSingleTet(t *testing.T) {
	pts := []geom.Vec3{{X: 0, Y: 0, Z: 0}, {X: 1, Y: 0, Z: 0}, {X: 0, Y: 1, Z: 0}, {X: 0, Y: 0, Z: 1}}
	tri := buildOrFatal(t, pts)
	if err := tri.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tri.NumFiniteTets(); got != 1 {
		t.Fatalf("finite tets = %d, want 1", got)
	}
	if got := len(tri.HullFaces()); got != 4 {
		t.Fatalf("hull faces = %d, want 4", got)
	}
}

func TestFivePoints(t *testing.T) {
	// A point inside the unit tet splits it into 4 tets.
	pts := []geom.Vec3{
		{X: 0, Y: 0, Z: 0}, {X: 1, Y: 0, Z: 0}, {X: 0, Y: 1, Z: 0}, {X: 0, Y: 0, Z: 1},
		{X: 0.1, Y: 0.1, Z: 0.1},
	}
	tri := buildOrFatal(t, pts)
	if err := tri.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := tri.ValidateDelaunay(); err != nil {
		t.Fatal(err)
	}
	if got := tri.NumFiniteTets(); got != 4 {
		t.Fatalf("finite tets = %d, want 4", got)
	}
}

func TestOutsideHullInsertion(t *testing.T) {
	pts := []geom.Vec3{
		{X: 0, Y: 0, Z: 0}, {X: 1, Y: 0, Z: 0}, {X: 0, Y: 1, Z: 0}, {X: 0, Y: 0, Z: 1},
		{X: 2, Y: 2, Z: 2}, // well outside
		{X: -1, Y: -1, Z: -1},
	}
	tri := buildOrFatal(t, pts)
	if err := tri.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := tri.ValidateDelaunay(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomPointsDelaunayProperty(t *testing.T) {
	for _, n := range []int{10, 40, 120, 300} {
		pts := randPoints(n, int64(n))
		tri := buildOrFatal(t, pts)
		if err := tri.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := tri.ValidateDelaunay(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestClusteredPointsDelaunayProperty(t *testing.T) {
	pts := clusteredPoints(250, 77)
	tri := buildOrFatal(t, pts)
	if err := tri.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := tri.ValidateDelaunay(); err != nil {
		t.Fatal(err)
	}
}

func TestGridPointsDegenerate(t *testing.T) {
	// A regular grid is maximally degenerate (many cospherical subsets).
	var pts []geom.Vec3
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			for k := 0; k < 4; k++ {
				pts = append(pts, geom.Vec3{X: float64(i), Y: float64(j), Z: float64(k)})
			}
		}
	}
	tri := buildOrFatal(t, pts)
	if err := tri.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := tri.ValidateDelaunay(); err != nil {
		t.Fatal(err)
	}
	// Total volume of finite tets must equal the cube volume 27.
	var vol float64
	tri.ForEachFiniteTet(func(ti int32, _ *Tet) {
		vol += tri.TetVolume(ti)
	})
	if math.Abs(vol-27) > 1e-9 {
		t.Fatalf("grid volume = %v, want 27", vol)
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := randPoints(50, 3)
	// Duplicate a third of them exactly.
	for i := 0; i < 16; i++ {
		pts = append(pts, pts[i])
	}
	tri := buildOrFatal(t, pts)
	if err := tri.Validate(); err != nil {
		t.Fatal(err)
	}
	st := tri.Stats()
	if st.Duplicates != 16 {
		t.Fatalf("duplicates = %d, want 16", st.Duplicates)
	}
	for i := 50; i < 66; i++ {
		if tri.DuplicateOf(i) != i-50 {
			t.Fatalf("DuplicateOf(%d) = %d, want %d", i, tri.DuplicateOf(i), i-50)
		}
	}
}

func TestConvexHullVolume(t *testing.T) {
	// Points in the unit cube with the 8 corners present: hull volume is 1,
	// so the sum of all finite tet volumes must be exactly ~1.
	pts := randPoints(200, 5)
	for _, c := range []geom.Vec3{
		{X: 0, Y: 0, Z: 0}, {X: 1, Y: 0, Z: 0}, {X: 0, Y: 1, Z: 0}, {X: 0, Y: 0, Z: 1},
		{X: 1, Y: 1, Z: 0}, {X: 1, Y: 0, Z: 1}, {X: 0, Y: 1, Z: 1}, {X: 1, Y: 1, Z: 1},
	} {
		pts = append(pts, c)
	}
	tri := buildOrFatal(t, pts)
	var vol float64
	tri.ForEachFiniteTet(func(ti int32, _ *Tet) {
		v := tri.TetVolume(ti)
		if v <= 0 {
			t.Fatalf("tet %d has non-positive volume %v", ti, v)
		}
		vol += v
	})
	if math.Abs(vol-1) > 1e-9 {
		t.Fatalf("hull volume = %v, want 1", vol)
	}
}

func TestVertexVolumesPartitionSpace(t *testing.T) {
	// Sum over vertices of incident-volume equals 4x total volume (each tet
	// contributes its volume to its 4 vertices).
	pts := randPoints(150, 9)
	tri := buildOrFatal(t, pts)
	vol, hull := tri.VertexVolumes()
	var tot, vsum float64
	tri.ForEachFiniteTet(func(ti int32, _ *Tet) { tot += tri.TetVolume(ti) })
	anyInterior := false
	for v, s := range vol {
		vsum += s
		if !hull[v] {
			anyInterior = true
			if s <= 0 {
				t.Fatalf("interior vertex %d has volume %v", v, s)
			}
		}
	}
	if math.Abs(vsum-4*tot) > 1e-9*(1+4*tot) {
		t.Fatalf("vertex volume sum %v != 4*total %v", vsum, 4*tot)
	}
	if !anyInterior {
		t.Fatal("expected at least one interior vertex")
	}
}

func TestLocateContainment(t *testing.T) {
	pts := randPoints(300, 21)
	tri := buildOrFatal(t, pts)
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 300; trial++ {
		q := geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		ti, err := tri.Locate(q)
		if err != nil {
			t.Fatalf("Locate(%v): %v", q, err)
		}
		if tri.IsInfinite(ti) {
			// q outside the hull: verify it is outside at least one
			// outward hull facet of that infinite tet.
			tt := tri.Tets()[ti]
			s := tt.InfSlot()
			a, b, c := tri.OutwardFace(ti, s)
			if geom.Orient3D(pts[a], pts[b], pts[c], q) > 0 {
				t.Fatalf("locate returned infinite tet but point is on hull-interior side")
			}
			continue
		}
		if !tri.containsPoint(ti, q) {
			t.Fatalf("locate returned tet not containing the query")
		}
	}
}

func TestLocateOutsidePoints(t *testing.T) {
	pts := randPoints(100, 31)
	tri := buildOrFatal(t, pts)
	for _, q := range []geom.Vec3{
		{X: 5, Y: 5, Z: 5}, {X: -3, Y: 0.5, Z: 0.5}, {X: 0.5, Y: 9, Z: 0.5},
	} {
		ti, err := tri.Locate(q)
		if err != nil {
			t.Fatalf("Locate(%v): %v", q, err)
		}
		if !tri.IsInfinite(ti) {
			t.Fatalf("point %v should locate outside the hull", q)
		}
	}
}

func TestLocateVertexQuery(t *testing.T) {
	pts := randPoints(120, 41)
	tri := buildOrFatal(t, pts)
	for v := 0; v < 120; v += 7 {
		ti, err := tri.Locate(pts[v])
		if err != nil {
			t.Fatalf("Locate(pts[%d]): %v", v, err)
		}
		found := false
		for _, u := range tri.Tets()[ti].V {
			if u == int32(v) {
				found = true
			}
		}
		if !found {
			t.Fatalf("locating vertex %d returned tet %v not containing it", v, tri.Tets()[ti].V)
		}
	}
}

func TestHullFacesAreConvex(t *testing.T) {
	pts := randPoints(150, 51)
	tri := buildOrFatal(t, pts)
	faces := tri.HullFaces()
	if len(faces) < 4 {
		t.Fatalf("too few hull faces: %d", len(faces))
	}
	// No point may lie strictly outside any outward hull face.
	for _, hf := range faces {
		a, b, c := pts[hf.V[0]], pts[hf.V[1]], pts[hf.V[2]]
		for v, p := range pts {
			if geom.Orient3D(a, b, c, p) > 0 {
				t.Fatalf("point %d outside hull face %v", v, hf.V)
			}
		}
		if tri.IsInfinite(hf.Behind) {
			t.Fatalf("hull face Behind tet is infinite")
		}
	}
	// Euler check: hull of a 3-polytope has 2V' - 4 faces where V' is the
	// number of hull vertices. Verify via edge counting instead: 3F = 2E.
	edges := map[[2]int32]int{}
	for _, hf := range faces {
		for e := 0; e < 3; e++ {
			a, b := hf.V[e], hf.V[(e+1)%3]
			if a > b {
				a, b = b, a
			}
			edges[[2]int32{a, b}]++
		}
	}
	for e, cnt := range edges {
		if cnt != 2 {
			t.Fatalf("hull edge %v shared by %d faces, want 2", e, cnt)
		}
	}
}

func TestVertexTetAnchors(t *testing.T) {
	pts := randPoints(80, 61)
	tri := buildOrFatal(t, pts)
	for v := int32(0); v < 80; v++ {
		ti := tri.VertexTet(v)
		if ti == NoTet {
			t.Fatalf("vertex %d has no anchor", v)
		}
	}
}

func TestNearlyCosphericalStress(t *testing.T) {
	// Points on a sphere (all cospherical up to rounding): the insphere
	// predicate is exercised at its degeneracy boundary.
	rng := rand.New(rand.NewSource(71))
	pts := make([]geom.Vec3, 0, 120)
	for i := 0; i < 120; i++ {
		v := geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		n := v.Norm()
		if n == 0 {
			continue
		}
		pts = append(pts, v.Scale(1/n))
	}
	// One interior point keeps the triangulation non-degenerate.
	pts = append(pts, geom.Vec3{X: 0.01, Y: 0.02, Z: 0.03})
	tri := buildOrFatal(t, pts)
	if err := tri.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := tri.ValidateDelaunay(); err != nil {
		t.Fatal(err)
	}
}

func TestCoplanarInputRejected(t *testing.T) {
	var pts []geom.Vec3
	rng := rand.New(rand.NewSource(81))
	for i := 0; i < 30; i++ {
		pts = append(pts, geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: 0.25})
	}
	if _, err := New(pts); err == nil {
		t.Fatal("coplanar input should be rejected")
	}
	if _, err := New(pts[:3]); err == nil {
		t.Fatal("too-few points should be rejected")
	}
}

func TestStatsString(t *testing.T) {
	tri := buildOrFatal(t, randPoints(30, 91))
	s := tri.Stats()
	if s.Points != 30 || tri.NumPoints() != 30 || s.FiniteTets == 0 || s.String() == "" {
		t.Fatalf("stats = %+v", s)
	}
	// What pipeline sums per rank and dtfe-render -v prints.
	b := tri.BuildStats()
	sum := b
	sum.Add(b)
	if b.Inserts != 26 || sum.Inserts != 52 || sum.WalkSteps != 2*b.WalkSteps || sum.ConflictTests != 2*b.ConflictTests ||
		sum.CavityTets != 2*b.CavityTets || sum.NewTets != 2*b.NewTets {
		t.Fatalf("build stats %+v, added to themselves %+v", b, sum)
	}
	if got := (BuildStats{Inserts: 4, WalkSteps: 10, ConflictTests: 6, CavityTets: 2, NewTets: 8}).String(); got != "inserts=4 per insert: walk=2.5 tests=1.5 killed=0.5 created=2.0" {
		t.Fatalf("BuildStats.String() = %q", got)
	}
	if got := (BuildStats{}).String(); !strings.HasPrefix(got, "inserts=0 per insert: walk=0.0") {
		t.Fatalf("zero BuildStats.String() = %q", got)
	}
}

// TestValidateRejectsCorruption: every structural failure Validate exists
// to report, planted by hand in an otherwise valid mesh.
func TestValidateRejectsCorruption(t *testing.T) {
	for _, tc := range []struct {
		want    string
		corrupt func(tri *Triangulation)
	}{
		{"has no neighbor", func(tri *Triangulation) { tri.tets[0].N[0] = NoTet }},
		{"points to dead tet", func(tri *Triangulation) { tri.dead[tri.tets[0].N[0]] = true }},
		{"lacks back pointer", func(tri *Triangulation) {
			for m := range tri.tets {
				if m != 0 && !slices.Contains(tri.tets[m].N[:], 0) {
					tri.tets[0].N[0] = int32(m)
					return
				}
			}
		}},
		{"do not share vertices", func(tri *Triangulation) {
			n := &tri.tets[0].N
			n[0], n[1] = n[1], n[0]
		}},
		{"not positively oriented", func(tri *Triangulation) {
			tet := &tri.tets[0] // finite: compact() puts those first
			tet.V[0], tet.V[1] = tet.V[1], tet.V[0]
			tet.N[0], tet.N[1] = tet.N[1], tet.N[0]
		}},
		{"anchored to dead tet", func(tri *Triangulation) {
			tri.tets, tri.dead = append(tri.tets, Tet{}), append(tri.dead, true)
			tri.vertTet[0] = int32(len(tri.tets) - 1)
		}},
		{"does not contain it", func(tri *Triangulation) {
			for m := range tri.tets {
				if !slices.Contains(tri.tets[m].V[:], 0) {
					tri.vertTet[0] = int32(m)
					return
				}
			}
		}},
	} {
		tri := buildOrFatal(t, randPoints(30, 91))
		if tri.Dead(0) {
			t.Fatal("slot 0 of a compacted pool is dead")
		}
		tc.corrupt(tri)
		if err := tri.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("want an error saying %q, got %v", tc.want, err)
		}
	}
}

func BenchmarkBuild1k(b *testing.B)  { benchBuild(b, 1000) }
func BenchmarkBuild10k(b *testing.B) { benchBuild(b, 10000) }

func benchBuild(b *testing.B, n int) {
	pts := randPoints(n, 123)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(pts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocate(b *testing.B) {
	pts := randPoints(20000, 5)
	tri, err := New(pts)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	qs := make([]geom.Vec3, 1024)
	for i := range qs {
		qs[i] = geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tri.Locate(qs[i%len(qs)]) //nolint:errcheck // benchmark
	}
}

func TestQuickDelaunayValidity(t *testing.T) {
	// testing/quick: arbitrary small point sets either fail cleanly
	// (degenerate input) or produce a structurally valid Delaunay
	// triangulation.
	f := func(raw []float64) bool {
		var pts []geom.Vec3
		if len(raw) > 90 {
			raw = raw[:90]
		}
		for i := 0; i+2 < len(raw); i += 3 {
			c := func(x float64) float64 {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					return 0.25
				}
				return math.Mod(x, 8)
			}
			pts = append(pts, geom.Vec3{X: c(raw[i]), Y: c(raw[i+1]), Z: c(raw[i+2])})
		}
		tri, err := New(pts)
		if err != nil {
			return true // degenerate input is allowed to be rejected
		}
		return tri.Validate() == nil && tri.ValidateDelaunay() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLargeBuildStress(t *testing.T) {
	if testing.Short() {
		t.Skip("large stress skipped in -short mode")
	}
	// A bigger clustered build with full structural validation (the
	// empty-sphere check is O(T·N), so keep N moderate).
	pts := clusteredPoints(1500, 99)
	tri := buildOrFatal(t, pts)
	if err := tri.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := tri.ValidateDelaunay(); err != nil {
		t.Fatal(err)
	}
	st := tri.Stats()
	// Expected tetrahedra-per-point ratio for random-ish 3D data: ~6-7.
	ratio := float64(st.FiniteTets) / float64(st.Points)
	if ratio < 4 || ratio > 9 {
		t.Fatalf("tets/point = %v, outside the expected band", ratio)
	}
}
