package lens

import (
	"math"
	"testing"

	"godtfe/internal/geom"
	"godtfe/internal/grid"
)

func TestConvergence(t *testing.T) {
	g := grid.NewGrid2D(4, 4, geom.Vec2{}, 1)
	g.Set(1, 1, 10)
	k, err := Convergence(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if k.At(1, 1) != 2 {
		t.Fatalf("kappa = %v", k.At(1, 1))
	}
	if _, err := Convergence(g, 0); err == nil {
		t.Fatal("zero sigmaCrit accepted")
	}
}

func TestDeflectionSineMode(t *testing.T) {
	// κ = cos(kx) ⇒ αx = 2 sin(kx)/k, αy = 0.
	const n = 64
	g := grid.NewGrid2D(n, n, geom.Vec2{}, 1.0/n)
	k := 2 * math.Pi * 2
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			g.Set(i, j, math.Cos(k*g.Center(i, j).X))
		}
	}
	ax, ay, err := Deflection(g)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < n; j += 5 {
		for i := 0; i < n; i += 3 {
			want := 2 * math.Sin(k*g.Center(i, j).X) / k
			if math.Abs(ax.At(i, j)-want) > 1e-10 {
				t.Fatalf("ax(%d,%d) = %v, want %v", i, j, ax.At(i, j), want)
			}
			if math.Abs(ay.At(i, j)) > 1e-10 {
				t.Fatalf("ay(%d,%d) = %v, want 0", i, j, ay.At(i, j))
			}
		}
	}
}

func TestDeflectionSignConvention(t *testing.T) {
	// With α = ∇ψ and ∇²ψ = 2κ, α points AWAY from a mass clump, so that
	// β = θ - α maps image positions inward toward the lens (the
	// point-mass analogue is β = θ - θ_E²/θ).
	const n = 64
	g := grid.NewGrid2D(n, n, geom.Vec2{}, 1.0/n)
	for j := 28; j < 36; j++ {
		for i := 28; i < 36; i++ {
			g.Set(i, j, 1)
		}
	}
	ax, _, err := Deflection(g)
	if err != nil {
		t.Fatal(err)
	}
	if ax.At(16, 32) >= 0 {
		t.Fatalf("left-of-center deflection %v should point left (away)", ax.At(16, 32))
	}
	if ax.At(48, 32) <= 0 {
		t.Fatalf("right-of-center deflection %v should point right (away)", ax.At(48, 32))
	}
	// And the lens mapping pulls the source position toward the mass.
	theta := geom.Vec2{X: 0.25, Y: 0.5}
	p, err := NewPlane(g, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	beta := Shoot([]Plane{p}, theta)
	if beta.X <= theta.X {
		t.Fatalf("source position %v should sit closer to the lens than image %v", beta, theta)
	}
}

func TestDeflectionDivergenceRecoversKappa(t *testing.T) {
	// ∇·α = 2κ: verify via central differences on a smooth κ.
	const n = 128
	g := grid.NewGrid2D(n, n, geom.Vec2{}, 1.0/n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			c := g.Center(i, j)
			g.Set(i, j, math.Sin(2*math.Pi*c.X)*math.Cos(4*math.Pi*c.Y))
		}
	}
	ax, ay, err := Deflection(g)
	if err != nil {
		t.Fatal(err)
	}
	h := 2 * g.Cell
	for j := 1; j < n-1; j += 11 {
		for i := 1; i < n-1; i += 7 {
			div := (ax.At(i+1, j)-ax.At(i-1, j))/h + (ay.At(i, j+1)-ay.At(i, j-1))/h
			want := 2 * g.At(i, j)
			if math.Abs(div-want) > 0.05 { // finite-difference truncation
				t.Fatalf("div alpha at (%d,%d) = %v, want %v", i, j, div, want)
			}
		}
	}
}

func TestNonPow2Rejected(t *testing.T) {
	g := grid.NewGrid2D(10, 10, geom.Vec2{}, 1)
	if _, _, err := Deflection(g); err == nil {
		t.Fatal("non-pow2 accepted")
	}
}

func TestShootZeroDeflection(t *testing.T) {
	kappa := grid.NewGrid2D(16, 16, geom.Vec2{}, 1.0/16)
	p, err := NewPlane(kappa, 1)
	if err != nil {
		t.Fatal(err)
	}
	theta := geom.Vec2{X: 0.3, Y: 0.7}
	if beta := Shoot([]Plane{p}, theta); beta != theta {
		t.Fatalf("empty plane deflected ray: %v -> %v", theta, beta)
	}
}

func TestShootMultiplaneAdds(t *testing.T) {
	// Two identical weak planes deflect ~twice as much as one.
	const n = 64
	kappa := grid.NewGrid2D(n, n, geom.Vec2{}, 1.0/n)
	for j := 30; j < 34; j++ {
		for i := 30; i < 34; i++ {
			kappa.Set(i, j, 0.05)
		}
	}
	p, err := NewPlane(kappa, 1)
	if err != nil {
		t.Fatal(err)
	}
	theta := geom.Vec2{X: 0.25, Y: 0.5}
	b1 := Shoot([]Plane{p}, theta)
	b2 := Shoot([]Plane{p, p}, theta)
	d1 := theta.Sub(b1).Norm()
	d2 := theta.Sub(b2).Norm()
	if d1 <= 0 {
		t.Fatal("no deflection from massive plane")
	}
	if math.Abs(d2-2*d1) > 0.2*d1 {
		t.Fatalf("two planes deflect %v, want ~%v", d2, 2*d1)
	}
}

func TestShootGridAndMagnification(t *testing.T) {
	const n = 32
	kappa := grid.NewGrid2D(n, n, geom.Vec2{}, 1.0/n)
	for j := 14; j < 18; j++ {
		for i := 14; i < 18; i++ {
			kappa.Set(i, j, 0.2)
		}
	}
	p, err := NewPlane(kappa, 1)
	if err != nil {
		t.Fatal(err)
	}
	bx, by := ShootGrid([]Plane{p}, kappa)
	if bx.Nx != n || by.Ny != n {
		t.Fatal("shot grid shape")
	}
	mag := Magnification(bx, by)
	// Far from the mass, the mapping is near identity: det ≈ 1.
	if v := mag.At(2, 2); math.Abs(v-1) > 0.2 {
		t.Fatalf("far-field inverse magnification = %v, want ~1", v)
	}
}

func TestCriticalCurvesAppearForStrongLens(t *testing.T) {
	// A strong central clump (kappa > 1 in the core) produces critical
	// curves; a weak one does not.
	build := func(amp float64) []grid.Segment {
		const n = 64
		kappa := grid.NewGrid2D(n, n, geom.Vec2{}, 1.0/n)
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				c := kappa.Center(i, j)
				dx, dy := c.X-0.5, c.Y-0.5
				kappa.Set(i, j, amp*math.Exp(-(dx*dx+dy*dy)/(2*0.03*0.03)))
			}
		}
		p, err := NewPlane(kappa, 1)
		if err != nil {
			t.Fatal(err)
		}
		bx, by := ShootGrid([]Plane{p}, kappa)
		return CriticalCurves(bx, by)
	}
	if weak := build(0.05); len(weak) != 0 {
		t.Fatalf("weak lens produced %d critical segments", len(weak))
	}
	strong := build(3.0)
	if len(strong) < 8 {
		t.Fatalf("strong lens produced only %d critical segments", len(strong))
	}
}
