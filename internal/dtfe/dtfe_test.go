package dtfe

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"godtfe/internal/delaunay"
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

func mustField(t *testing.T, pts []geom.Vec3, masses []float64) *Field {
	t.Helper()
	tri, err := delaunay.New(pts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewField(tri, masses)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestMassConservation(t *testing.T) {
	// The DTFE estimator conserves mass exactly: integrating the
	// piecewise-linear density over the hull returns the total mass of
	// particles with bounded contiguous cells... summed over ALL vertices
	// (including hull vertices, whose partial cells are clipped by the
	// hull) the telescoping identity gives exactly N (unit masses).
	pts := randPoints(400, 1)
	f := mustField(t, pts, nil)
	if got := f.TotalMass(); math.Abs(got-400) > 1e-6 {
		t.Fatalf("total mass = %v, want 400", got)
	}
}

func TestMassConservationWithMasses(t *testing.T) {
	pts := randPoints(200, 2)
	rng := rand.New(rand.NewSource(3))
	masses := make([]float64, len(pts))
	var want float64
	for i := range masses {
		masses[i] = rng.Float64() + 0.5
		want += masses[i]
	}
	f := mustField(t, pts, masses)
	if got := f.TotalMass(); math.Abs(got-want) > 1e-6*want {
		t.Fatalf("total mass = %v, want %v", got, want)
	}
}

func TestUniformGridDensity(t *testing.T) {
	// Unit-spaced grid points: interior vertices have contiguous cell
	// volume 4 * (unit cell) ... by symmetry all interior densities are
	// equal, and with unit mass per point and unit spacing they equal ~1.
	var pts []geom.Vec3
	n := 6
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				pts = append(pts, geom.Vec3{X: float64(i), Y: float64(j), Z: float64(k)})
			}
		}
	}
	f := mustField(t, pts, nil)
	for v := range pts {
		if f.Hull[v] {
			continue
		}
		if math.Abs(f.Density[v]-1) > 1e-9 {
			t.Fatalf("interior vertex %d density %v, want 1", v, f.Density[v])
		}
	}
}

func TestLinearFieldReproducedExactly(t *testing.T) {
	// DTFE is a first-order interpolator: setting vertex values from a
	// linear function must reproduce it exactly inside the hull.
	pts := randPoints(300, 7)
	f := mustField(t, pts, nil)
	lin := func(p geom.Vec3) float64 { return 2.5 + 1.25*p.X - 3.0*p.Y + 0.5*p.Z }
	vals := make([]float64, len(pts))
	for i, p := range pts {
		vals[i] = lin(p)
	}
	if err := f.SetValues(vals); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		q := geom.Vec3{
			X: 0.2 + 0.6*rng.Float64(),
			Y: 0.2 + 0.6*rng.Float64(),
			Z: 0.2 + 0.6*rng.Float64(),
		}
		got, ok, err := f.At(q)
		if err != nil {
			t.Fatalf("At(%v): %v", q, err)
		}
		if !ok {
			continue // outside hull (possible near sparse corners)
		}
		want := lin(q)
		if math.Abs(got-want) > 1e-8*(1+math.Abs(want)) {
			t.Fatalf("at %v: got %v want %v", q, got, want)
		}
	}
}

func TestInterpolateContinuityAcrossFaces(t *testing.T) {
	// The DTFE field is continuous: interpolating the same point from two
	// tets sharing the face containing it gives the same value.
	pts := randPoints(150, 9)
	f := mustField(t, pts, nil)
	tets := f.Tri.Tets()
	checked := 0
	for ti := range tets {
		if f.Tri.Dead(int32(ti)) || f.Tri.IsInfinite(int32(ti)) {
			continue
		}
		for face := 0; face < 4; face++ {
			n := tets[ti].N[face]
			if f.Tri.IsInfinite(n) {
				continue
			}
			a, b, c := f.Tri.OutwardFace(int32(ti), face)
			p := f.Tri.Points()[a].Add(f.Tri.Points()[b]).Add(f.Tri.Points()[c]).Scale(1.0 / 3.0)
			v1 := f.Interpolate(int32(ti), p)
			v2 := f.Interpolate(n, p)
			scale := math.Abs(v1) + math.Abs(v2) + 1
			if math.Abs(v1-v2) > 1e-6*scale {
				t.Fatalf("discontinuity at face: %v vs %v", v1, v2)
			}
			checked++
		}
		if checked > 400 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no interior faces checked")
	}
}

func TestDensityAtVertexMatchesEstimate(t *testing.T) {
	// Interpolating exactly at a vertex returns that vertex's density.
	pts := randPoints(120, 11)
	f := mustField(t, pts, nil)
	for v := 0; v < len(pts); v += 5 {
		if f.Hull[v] {
			continue
		}
		got, ok, err := f.At(pts[v])
		if err != nil {
			t.Fatalf("At(pts[%d]): %v", v, err)
		}
		if !ok {
			t.Fatalf("vertex %d located outside hull", v)
		}
		if math.Abs(got-f.Density[v]) > 1e-6*(1+f.Density[v]) {
			t.Fatalf("vertex %d: interpolated %v vs estimate %v", v, got, f.Density[v])
		}
	}
}

func TestDuplicateMassAccumulates(t *testing.T) {
	pts := randPoints(100, 13)
	pts = append(pts, pts[0]) // duplicate of vertex 0
	f := mustField(t, pts, nil)
	// Total mass must count the duplicate's mass: 101.
	if got := f.TotalMass(); math.Abs(got-101) > 1e-6 {
		t.Fatalf("total mass = %v, want 101", got)
	}
	if f.Density[100] != f.Density[0] {
		t.Fatalf("duplicate density %v != canonical %v", f.Density[100], f.Density[0])
	}
}

func TestOutsideHull(t *testing.T) {
	f := mustField(t, randPoints(80, 15), nil)
	if _, ok, _ := f.At(geom.Vec3{X: 10, Y: 10, Z: 10}); ok {
		t.Fatal("point far outside hull should report !ok")
	}
}

// TestAtConcurrent queries one field from several goroutines, as
// godtfe.DensityField.At allows, and checks each answer against a
// sequential one. Under -race it also fails if At writes state the
// goroutines share.
func TestAtConcurrent(t *testing.T) {
	pts := randPoints(300, 17)
	f := mustField(t, pts, nil)
	qs := randPoints(200, 19)
	want := make([]float64, len(qs))
	for i, q := range qs {
		rho, _, err := f.At(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rho
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range qs {
				rho, _, err := f.At(q)
				if err == nil && rho != want[i] {
					err = fmt.Errorf("At(%v) = %v, sequential %v", q, rho, want[i])
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestVoronoiDensitiesLattice(t *testing.T) {
	// Unit lattice with unit masses: interior Voronoi cells have volume 1,
	// so zero-order densities are exactly 1; hull vertices fall back to
	// the DTFE contiguous-cell estimate (positive).
	var pts []geom.Vec3
	n := 6
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				pts = append(pts, geom.Vec3{X: float64(i), Y: float64(j), Z: float64(k)})
			}
		}
	}
	tri, err := delaunay.New(pts)
	if err != nil {
		t.Fatal(err)
	}
	den, bounded, err := VoronoiDensities(tri, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := range pts {
		if bounded[v] {
			if math.Abs(den[v]-1) > 1e-9 {
				t.Fatalf("interior voronoi density %v, want 1", den[v])
			}
		} else if den[v] <= 0 {
			t.Fatalf("hull vertex %d fallback density %v", v, den[v])
		}
	}
}

func TestVoronoiDensitiesMassesAndDuplicates(t *testing.T) {
	pts := randPoints(150, 31)
	pts = append(pts, pts[7]) // duplicate
	masses := make([]float64, len(pts))
	for i := range masses {
		masses[i] = 2
	}
	tri, err := delaunay.New(pts)
	if err != nil {
		t.Fatal(err)
	}
	den, _, err := VoronoiDensities(tri, masses)
	if err != nil {
		t.Fatal(err)
	}
	if den[150] != den[7] {
		t.Fatalf("duplicate density %v != canonical %v", den[150], den[7])
	}
	// Compare against unit masses: densities scale by the summed mass.
	den1, _, err := VoronoiDensities(tri, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 150; v++ {
		if den1[v] == 0 {
			continue
		}
		if math.Abs(den[v]/den1[v]-2) > 1e-9 {
			t.Fatalf("vertex %d: mass scaling %v, want 2", v, den[v]/den1[v])
		}
	}
	if _, _, err := VoronoiDensities(tri, make([]float64, 3)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestMassesLengthMismatch(t *testing.T) {
	tri, err := delaunay.New(randPoints(20, 17))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewField(tri, make([]float64, 5)); err == nil {
		t.Fatal("expected error for wrong masses length")
	}
	f, err := NewField(tri, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetValues(make([]float64, 3)); err == nil {
		t.Fatal("expected error for wrong values length")
	}
}

func BenchmarkNewField10k(b *testing.B) {
	pts := randPoints(10000, 19)
	tri, err := delaunay.New(pts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewField(tri, nil); err != nil {
			b.Fatal(err)
		}
	}
}
