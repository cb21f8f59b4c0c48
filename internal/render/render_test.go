package render

import (
	"math"
	"math/rand"
	"testing"

	"godtfe/internal/delaunay"
	"godtfe/internal/dtfe"
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

func fieldFor(t testing.TB, pts []geom.Vec3) *dtfe.Field {
	t.Helper()
	tri, err := delaunay.New(pts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := dtfe.NewField(tri, nil)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCrossZSignConvention(t *testing.T) {
	// Face in the z=0 plane, CCW from above (normal +z); ray goes up.
	a := geom.Vec3{X: 0, Y: 0, Z: 0}
	b := geom.Vec3{X: 2, Y: 0, Z: 0}
	c := geom.Vec3{X: 0, Y: 2, Z: 0}
	ray := geom.PluckerFromRay(geom.Vec3{X: 0.3, Y: 0.3, Z: -5}, geom.Vec3{Z: 1})
	// Ray crosses along the normal -> "exit" sense (dir = -1) must fire.
	if z, ok := crossZ(ray, a, b, c, -1); !ok || z != 0 {
		t.Fatalf("exit-sense crossing: ok=%v z=%v", ok, z)
	}
	// The entering sense must not fire.
	if _, ok := crossZ(ray, a, b, c, +1); ok {
		t.Fatal("enter-sense should not fire when crossing along the normal")
	}
	// Reversed face (normal -z): opposite senses.
	if _, ok := crossZ(ray, a, c, b, +1); !ok {
		t.Fatal("enter-sense should fire on downward-facing face")
	}
	// Ray through a vertex is degenerate in both senses.
	vray := geom.PluckerFromRay(geom.Vec3{X: 0, Y: 0, Z: -5}, geom.Vec3{Z: 1})
	if _, ok := crossZ(vray, a, b, c, -1); ok {
		t.Fatal("vertex crossing must report degeneracy")
	}
	// Intersection z interpolates correctly on a tilted face.
	d := geom.Vec3{X: 0, Y: 0, Z: 1}
	e := geom.Vec3{X: 2, Y: 0, Z: 1}
	f := geom.Vec3{X: 0, Y: 2, Z: 3}
	z, ok := crossZ(ray, d, e, f, -1)
	if !ok {
		t.Fatal("tilted face should cross")
	}
	// Plane through d,e,f: z = 1 + y  =>  at y=0.3, z=1.3.
	if math.Abs(z-1.3) > 1e-12 {
		t.Fatalf("tilted z = %v, want 1.3", z)
	}
}

func TestMarcherMatchesDirectQuadrature(t *testing.T) {
	pts := randPoints(400, 2)
	f := fieldFor(t, pts)
	m := NewMarcher(f)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		xi := geom.Vec2{X: 0.2 + 0.6*rng.Float64(), Y: 0.2 + 0.6*rng.Float64()}
		sigma, steps, _ := m.Column(xi, 0, 0)
		if steps == 0 {
			t.Fatalf("column %v visited no tets", xi)
		}
		// Direct quadrature along the same line with fine sampling.
		const n = 4000
		var want float64
		dz := 1.4 / n
		for k := 0; k < n; k++ {
			z := -0.2 + (float64(k)+0.5)*dz
			if rho, ok, _ := f.At(geom.Vec3{X: xi.X, Y: xi.Y, Z: z}); ok {
				want += rho * dz
			}
		}
		if math.Abs(sigma-want) > 0.02*(1+want) {
			t.Fatalf("column %v: marched %v vs quadrature %v", xi, sigma, want)
		}
	}
}

func TestMarcherClippedColumn(t *testing.T) {
	pts := randPoints(300, 5)
	f := fieldFor(t, pts)
	m := NewMarcher(f)
	xi := geom.Vec2{X: 0.5, Y: 0.5}
	full, _, _ := m.Column(xi, 0, 0)
	lowerHalf, _, _ := m.Column(xi, -1, 0.5)
	upperHalf, _, _ := m.Column(xi, 0.5, 2)
	if math.Abs(lowerHalf+upperHalf-full) > 1e-9*(1+full) {
		t.Fatalf("clip split %v + %v != full %v", lowerHalf, upperHalf, full)
	}
	if lowerHalf <= 0 || upperHalf <= 0 {
		t.Fatalf("clipped halves should be positive: %v %v", lowerHalf, upperHalf)
	}
}

func TestMarcherMassConservation(t *testing.T) {
	// Integrating Σ over the full projected plane returns the total mass
	// (up to pixelization of the hull boundary).
	pts := randPoints(600, 7)
	f := fieldFor(t, pts)
	m := NewMarcher(f)
	spec := Spec{
		Min: geom.Vec2{X: -0.05, Y: -0.05}, Nx: 96, Ny: 96, Cell: 1.1 / 96,
		Samples: 4, Seed: 1,
	}
	g, stats, err := m.Render(spec, 2, ScheduleDynamic)
	if err != nil {
		t.Fatal(err)
	}
	if TotalBusy(stats) <= 0 {
		t.Fatal("no busy time recorded")
	}
	mass := g.Integral()
	want := f.TotalMass()
	if math.Abs(mass-want)/want > 0.05 {
		t.Fatalf("projected mass %v vs total %v", mass, want)
	}
}

func TestMarcherDegenerateGridRays(t *testing.T) {
	// Lattice particles and rays aimed exactly at lattice lines: every
	// column starts on a vertex/edge and must be rescued by Perturb.
	var pts []geom.Vec3
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			for k := 0; k < 5; k++ {
				pts = append(pts, geom.Vec3{X: float64(i), Y: float64(j), Z: float64(k)})
			}
		}
	}
	f := fieldFor(t, pts)
	m := NewMarcher(f)
	for i := 0; i <= 4; i++ {
		for j := 0; j <= 4; j++ {
			xi := geom.Vec2{X: float64(i), Y: float64(j)}
			sigma, _, _ := m.Column(xi, 0, 0)
			if sigma < 0 {
				t.Fatalf("negative surface density at (%d,%d)", i, j)
			}
			if i > 0 && i < 4 && j > 0 && j < 4 {
				// Hull vertices have clipped contiguous cells and hence
				// elevated densities (the boundary bias ghost zones exist
				// to avoid), so the full chord integrates to > 4...
				if sigma < 4 || sigma > 7 {
					t.Fatalf("lattice column (%d,%d) = %v, want in [4,7]", i, j, sigma)
				}
				// ...while the interior-clipped chord sees density 1.
				clipped, _, _ := m.Column(xi, 1, 3)
				if math.Abs(clipped-2) > 0.05 {
					t.Fatalf("clipped lattice column (%d,%d) = %v, want ~2", i, j, clipped)
				}
			}
		}
	}
}

func TestMarcherMissesHull(t *testing.T) {
	f := fieldFor(t, randPoints(100, 9))
	m := NewMarcher(f)
	sigma, steps, _ := m.Column(geom.Vec2{X: 50, Y: 50}, 0, 0)
	if sigma != 0 || steps != 0 {
		t.Fatalf("missing column: sigma=%v steps=%d", sigma, steps)
	}
}

func TestWalkerMatchesMarcher(t *testing.T) {
	pts := randPoints(350, 11)
	f := fieldFor(t, pts)
	m := NewMarcher(f)
	w := NewWalker(f)
	spec := Spec{Min: geom.Vec2{X: 0.2, Y: 0.2}, Nx: 12, Ny: 12, Cell: 0.05, Nz: 600}
	gm, _, err := m.Render(spec, 2, ScheduleDynamic)
	if err != nil {
		t.Fatal(err)
	}
	gw, _, err := w.Render(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < spec.Ny; j++ {
		for i := 0; i < spec.Nx; i++ {
			a, b := gm.At(i, j), gw.At(i, j)
			if math.Abs(a-b) > 0.05*(1+math.Abs(a)) {
				t.Fatalf("cell (%d,%d): marcher %v vs walker %v", i, j, a, b)
			}
		}
	}
}

func TestZeroOrderUniformRegion(t *testing.T) {
	// Uniform lattice: zero-order surface density through the interior is
	// ~ chord * density(=1).
	var pts []geom.Vec3
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			for k := 0; k < 6; k++ {
				pts = append(pts, geom.Vec3{X: float64(i), Y: float64(j), Z: float64(k)})
			}
		}
	}
	f := fieldFor(t, pts)
	z := NewZeroOrder(pts, f.Density)
	spec := Spec{Min: geom.Vec2{X: 2, Y: 2}, Nx: 4, Ny: 4, Cell: 0.25, Nz: 200, ZMin: 1, ZMax: 4}
	g, _, err := z.Render(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range g.Data {
		if math.Abs(v-3) > 0.15 {
			t.Fatalf("zero-order interior column = %v, want ~3", v)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	bad := Spec{Nx: 0, Ny: 4, Cell: 1}
	if err := bad.Validate(false); err == nil {
		t.Fatal("invalid spec accepted")
	}
	no3d := Spec{Nx: 4, Ny: 4, Cell: 1}
	if err := no3d.Validate(true); err == nil {
		t.Fatal("3D kernel without Nz accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for name, mut := range map[string]func(*Spec){
		"cell NaN": func(s *Spec) { s.Cell = nan }, "cell +Inf": func(s *Spec) { s.Cell = inf }, "cell -Inf": func(s *Spec) { s.Cell = -inf },
		"min NaN": func(s *Spec) { s.Min.Y = nan }, "min Inf": func(s *Spec) { s.Min.X = -inf },
		"zmin NaN": func(s *Spec) { s.ZMin = nan }, "zmax NaN": func(s *Spec) { s.ZMax = nan },
	} {
		bad := no3d
		mut(&bad)
		if err := bad.Validate(false); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	for _, z := range [][2]float64{{-inf, inf}, {-inf, 0.5}, {0.5, inf}, {inf, -inf}} {
		ok := no3d
		ok.ZMin, ok.ZMax = z[0], z[1]
		if err := ok.Validate(false); err != nil {
			t.Errorf("z bounds %v rejected: %v", z, err)
		}
	}
	f := fieldFor(t, randPoints(50, 15))
	if _, _, err := NewWalker(f).Render(no3d, 1); err == nil {
		t.Fatal("walker must reject Nz=0")
	}
}

func TestMonteCarloSamplesConverge(t *testing.T) {
	pts := randPoints(400, 17)
	f := fieldFor(t, pts)
	m := NewMarcher(f)
	base := Spec{Min: geom.Vec2{X: 0.25, Y: 0.25}, Nx: 6, Ny: 6, Cell: 0.08}
	g1, _, err := m.Render(base, 1, ScheduleDynamic)
	if err != nil {
		t.Fatal(err)
	}
	mc := base
	mc.Samples = 16
	mc.Seed = 3
	g16, _, err := m.Render(mc, 1, ScheduleDynamic)
	if err != nil {
		t.Fatal(err)
	}
	// MC mean should stay within a reasonable band of the center value.
	for i := range g1.Data {
		a, b := g1.Data[i], g16.Data[i]
		if math.Abs(a-b) > 0.5*(1+math.Abs(a)) {
			t.Fatalf("MC cell %d diverged: %v vs %v", i, a, b)
		}
	}
}

func clusteredCloud(n int, seed int64) []geom.Vec3 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vec3, 0, n)
	for len(pts) < n {
		if rng.Float64() < 0.75 {
			// A few tight blobs.
			cx := []float64{0.3, 0.6, 0.45}[rng.Intn(3)]
			pts = append(pts, geom.Vec3{
				X: cx + 0.015*rng.NormFloat64(),
				Y: cx + 0.015*rng.NormFloat64(),
				Z: 0.5 + 0.1*rng.NormFloat64(),
			})
		} else {
			pts = append(pts, geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()})
		}
	}
	return pts
}

// TestMonteCarloReducesUndersamplingError verifies the paper's eq-5 claim:
// when grid cells are much wider than the particle spacing, the single
// center line under-samples the cell; Monte-Carlo jittered lines converge
// to the true cell-mean surface density.
func TestMonteCarloReducesUndersamplingError(t *testing.T) {
	pts := clusteredCloud(4000, 23)
	f := fieldFor(t, pts)
	m := NewMarcher(f)

	// Coarse grid: cells ~15x the blob scale.
	coarse := Spec{Min: geom.Vec2{X: 0.2, Y: 0.2}, Nx: 6, Ny: 6, Cell: 0.1}
	// Reference cell means: average a dense sub-grid of lines per cell.
	const sub = 12
	ref := coarse.Grid()
	for j := 0; j < coarse.Ny; j++ {
		for i := 0; i < coarse.Nx; i++ {
			var acc float64
			for sj := 0; sj < sub; sj++ {
				for si := 0; si < sub; si++ {
					xi := geom.Vec2{
						X: coarse.Min.X + (float64(i)+(float64(si)+0.5)/sub)*coarse.Cell,
						Y: coarse.Min.Y + (float64(j)+(float64(sj)+0.5)/sub)*coarse.Cell,
					}
					s, _, _ := m.Column(xi, 0, 0)
					acc += s
				}
			}
			ref.Set(i, j, acc/(sub*sub))
		}
	}

	g1, _, err := m.Render(coarse, 1, ScheduleDynamic)
	if err != nil {
		t.Fatal(err)
	}
	mc := coarse
	mc.Samples = 32
	mc.Seed = 5
	g32, _, err := m.Render(mc, 1, ScheduleDynamic)
	if err != nil {
		t.Fatal(err)
	}
	var err1, err32 float64
	for i := range ref.Data {
		err1 += math.Abs(g1.Data[i] - ref.Data[i])
		err32 += math.Abs(g32.Data[i] - ref.Data[i])
	}
	if err32 >= err1 {
		t.Fatalf("MC sampling did not reduce under-sampling error: center %v vs MC %v", err1, err32)
	}
	if err32 > 0.4*err1 {
		t.Logf("note: MC error %v vs center %v (ratio %.2f)", err32, err1, err32/err1)
	}
}

func BenchmarkMarcherColumn(b *testing.B) {
	pts := randPoints(20000, 19)
	f := fieldFor(b, pts)
	m := NewMarcher(f)
	rng := rand.New(rand.NewSource(20))
	xs := make([]geom.Vec2, 512)
	for i := range xs {
		xs[i] = geom.Vec2{X: rng.Float64(), Y: rng.Float64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Column(xs[i%len(xs)], 0, 0)
	}
}

func BenchmarkWalkerColumn(b *testing.B) {
	pts := randPoints(20000, 21)
	f := fieldFor(b, pts)
	w := NewWalker(f)
	rng := rand.New(rand.NewSource(22))
	xs := make([]geom.Vec2, 512)
	for i := range xs {
		xs[i] = geom.Vec2{X: rng.Float64(), Y: rng.Float64()}
	}
	b.ResetTimer()
	seed := delaunay.NoTet
	for i := 0; i < b.N; i++ {
		_, _, seed, _ = w.Column(xs[i%len(xs)], 0, 1, 64, seed)
	}
}

func TestMarcherThinSlab(t *testing.T) {
	// Particles confined to a thin slab produce extreme sliver tetrahedra;
	// the marcher must survive and conserve the projected mass.
	rng := rand.New(rand.NewSource(51))
	pts := make([]geom.Vec3, 3000)
	for i := range pts {
		pts[i] = geom.Vec3{
			X: rng.Float64(),
			Y: rng.Float64(),
			Z: 0.5 + 0.004*rng.Float64(), // 0.4% thick slab
		}
	}
	f := fieldFor(t, pts)
	m := NewMarcher(f)
	spec := Spec{Min: geom.Vec2{X: -0.02, Y: -0.02}, Nx: 72, Ny: 72, Cell: 1.04 / 72}
	g, _, err := m.Render(spec, 2, ScheduleDynamic)
	if err != nil {
		t.Fatal(err)
	}
	mass := g.Integral()
	if math.Abs(mass-3000) > 0.15*3000 {
		t.Fatalf("thin-slab projected mass %v, want ~3000", mass)
	}
	for _, v := range g.Data {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("bad cell value %v", v)
		}
	}
}
