// Command dtfe-lens runs the lensing analysis the paper's surface-density
// fields feed: reconstruct Σ from a particle file with the marching
// kernel, convert to convergence κ = Σ/Σ_crit, solve for the deflection
// and shear fields, ray-shoot to the source plane, and report critical
// curves. Maps are written as log-scaled PGM images.
//
// Usage:
//
//	dtfe-lens -i particles.dtfe -grid 256 -sigmacrit auto -outdir maps/
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"godtfe/internal/delaunay"
	"godtfe/internal/dtfe"
	"godtfe/internal/fft"
	"godtfe/internal/geom"
	"godtfe/internal/grid"
	"godtfe/internal/lens"
	"godtfe/internal/particleio"
	"godtfe/internal/render"
)

func main() {
	in := flag.String("i", "particles.dtfe", "input particle file")
	gridN := flag.Int("grid", 256, "map resolution (power of two)")
	sigmaCrit := flag.Float64("sigmacrit", 0, "critical surface density (0 = auto: 1/3 of the max Σ, a strong-lens regime)")
	outdir := flag.String("outdir", ".", "output directory for PGM maps")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "render workers")
	ingest := flag.String("ingest", "fail", "invalid-particle policy: fail | drop")
	flag.Parse()
	policy, err := checkFlags(*gridN, *sigmaCrit, *workers, *ingest)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtfe-lens:", err)
		flag.Usage()
		os.Exit(2)
	}
	pts, rep, err := particleio.ReadAllValidated(*in, particleio.ValidateOptions{Policy: policy})
	if err != nil {
		log.Fatalf("read: %v", err)
	}
	if !rep.Clean() {
		fmt.Printf("%v\n", rep)
	}
	box := geom.BoundsOf(pts)
	fmt.Printf("%d particles\n", len(pts))

	tri, err := delaunay.New(pts)
	if err != nil {
		log.Fatalf("triangulate: %v", err)
	}
	field, err := dtfe.NewField(tri, nil)
	if err != nil {
		log.Fatalf("dtfe: %v", err)
	}
	sz := box.Size()
	cell := sz.X / float64(*gridN)
	spec := render.Spec{
		Min: geom.Vec2{X: box.Min.X, Y: box.Min.Y}, Nx: *gridN, Ny: *gridN, Cell: cell,
		ZMin: box.Min.Z, ZMax: box.Max.Z,
	}
	sigma, stats, err := render.NewMarcher(field).Render(spec, *workers, render.ScheduleDynamic)
	if err != nil {
		log.Fatalf("render: %v", err)
	}
	if oc := render.TotalOutcomes(stats); oc.Degraded() > 0 {
		fmt.Printf("columns: %v\n", oc)
	}
	_, hi := sigma.MinMax()
	sc := *sigmaCrit
	if sc == 0 {
		sc = hi / 3
	}
	kappa, err := lens.Convergence(sigma, sc)
	if err != nil {
		log.Fatal(err)
	}
	g1, g2, err := lens.Shear(kappa)
	if err != nil {
		log.Fatal(err)
	}
	plane, err := lens.NewPlane(kappa, 1)
	if err != nil {
		log.Fatal(err)
	}
	bx, by := lens.ShootGrid([]lens.Plane{plane}, kappa)
	mag := lens.Magnification(bx, by)
	crit := lens.CriticalCurves(bx, by)

	klo, khi := kappa.MinMax()
	fmt.Printf("sigma_crit = %.4g; kappa in [%.4g, %.4g]\n", sc, klo, khi)
	var maxShear float64
	for i := range g1.Data {
		maxShear = math.Max(maxShear, math.Hypot(g1.Data[i], g2.Data[i]))
	}
	fmt.Printf("max |shear| = %.4g; %d critical-curve segments\n", maxShear, len(crit))

	dump := func(name string, g *grid.Grid2D, logScale bool) {
		path := filepath.Join(*outdir, name)
		f, err := os.Create(path)
		if err != nil {
			log.Fatalf("create %s: %v", path, err)
		}
		defer f.Close()
		if err := g.WritePGM(f, logScale); err != nil {
			log.Fatalf("pgm %s: %v", path, err)
		}
		fmt.Printf("wrote %s\n", path)
	}
	dump("sigma.pgm", sigma, true)
	dump("kappa.pgm", kappa, true)
	dump("magnification.pgm", mag, false)
}

// checkFlags rejects, before the catalog is read, the flag values no
// analysis can run with, and returns the parsed -ingest policy.
func checkFlags(gridN int, sigmaCrit float64, workers int, ingest string) (particleio.Policy, error) {
	policy, err := particleio.ParsePolicy(ingest)
	switch {
	case !fft.IsPow2(gridN):
		return 0, fmt.Errorf("-grid %d: need a power of two for the FFT solvers", gridN)
	case !(sigmaCrit >= 0 && sigmaCrit < math.Inf(1)):
		return 0, fmt.Errorf("-sigmacrit %g: need 0 (auto) or a finite positive density", sigmaCrit)
	case workers < 1:
		return 0, fmt.Errorf("-workers %d: need at least one worker", workers)
	case err != nil:
		return 0, fmt.Errorf("-ingest %q: want fail or drop", ingest)
	}
	return policy, nil
}
