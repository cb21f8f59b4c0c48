// Command dtfe-gen generates particle datasets and writes them in the
// blocked binary format (internal/particleio). Generators:
//
//	uniform  — Poisson points
//	halos    — NFW-like halo superposition + uniform background
//	soneira  — Soneira-Peebles hierarchical clustering
//	pm       — particle-mesh N-body evolution from Zel'dovich ICs
//
// Usage:
//
//	dtfe-gen -kind pm -n 32768 -steps 25 -o particles.dtfe
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"

	"godtfe/internal/geom"
	"godtfe/internal/nbody"
	"godtfe/internal/particleio"
	"godtfe/internal/synth"
)

// kinds names the generators -kind selects.
var kinds = []string{"uniform", "halos", "soneira", "pm", "collapse"}

func main() {
	kind := flag.String("kind", "halos", "generator: "+strings.Join(kinds, " | "))
	n := flag.Int("n", 100000, "particle count (approximate for soneira)")
	boxLen := flag.Float64("box", 1.0, "box edge length")
	seed := flag.Int64("seed", 1, "random seed")
	blocks := flag.Int("blocks", 4, "file blocks per dimension")
	out := flag.String("o", "particles.dtfe", "output path")
	steps := flag.Int("steps", 20, "pm: number of leapfrog steps")
	dt := flag.Float64("dt", 0.08, "pm: time step")
	mesh := flag.Int("mesh", 64, "pm: mesh cells per dimension (power of two)")
	flag.Parse()
	if err := checkFlags(*kind, *n, *boxLen, *blocks, *steps, *dt, *mesh); err != nil {
		fmt.Fprintln(os.Stderr, "dtfe-gen:", err)
		flag.Usage()
		os.Exit(2)
	}

	box := geom.AABB{Min: geom.Vec3{}, Max: geom.Vec3{X: *boxLen, Y: *boxLen, Z: *boxLen}}
	var pts []geom.Vec3
	switch *kind {
	case "uniform":
		pts = synth.Uniform(*n, box, *seed)
	case "halos":
		pts = synth.HaloSet(*n, box, synth.DefaultHaloSpec(), *seed)
	case "soneira":
		// Choose levels to approximate n: 4 clusters of eta^levels leaves.
		eta := 4
		levels := int(math.Round(math.Log(float64(*n)/4) / math.Log(float64(eta))))
		if levels < 1 {
			levels = 1
		}
		pts = synth.SoneiraPeebles(levels, eta, 1.9, box, *seed)
	case "collapse":
		// Cold spherical collapse with the Barnes-Hut integrator: an
		// isolated, strongly concentrated object (single-halo test data).
		rng := rand.New(rand.NewSource(*seed))
		var pos []geom.Vec3
		c := box.Center()
		r0 := *boxLen * 0.35
		for len(pos) < *n {
			p := geom.Vec3{X: rng.Float64()*2 - 1, Y: rng.Float64()*2 - 1, Z: rng.Float64()*2 - 1}
			if p.Norm() <= 1 {
				pos = append(pos, c.Add(p.Scale(r0)))
			}
		}
		vel := make([]geom.Vec3, len(pos))
		masses := make([]float64, len(pos))
		for i := range masses {
			masses[i] = 1 / float64(len(pos))
		}
		sim, err := nbody.NewBHSim(pos, vel, masses)
		if err != nil {
			log.Fatalf("collapse: %v", err)
		}
		sim.Eps = 0.05 * r0
		if err := sim.Run(*steps, *dt); err != nil {
			log.Fatalf("collapse: %v", err)
		}
		pts = sim.Pos
	case "pm":
		np := int(math.Round(math.Cbrt(float64(*n))))
		sim, err := nbody.New(nbody.Config{
			Mesh: *mesh, Particles: np, Box: *boxLen, Seed: *seed, Amplitude: 0.8,
		})
		if err != nil {
			log.Fatalf("pm: %v", err)
		}
		if err := sim.Run(*steps, *dt); err != nil {
			log.Fatalf("pm: %v", err)
		}
		pts = sim.Pos
	}

	if err := particleio.WriteDecomposed(*out, pts, *blocks, *blocks, *blocks); err != nil {
		log.Fatalf("write: %v", err)
	}
	b := geom.BoundsOf(pts)
	fmt.Printf("wrote %d particles (%s) to %s  bounds=[%.3g..%.3g]^3 blocks=%d\n",
		len(pts), *kind, *out, b.Min.X, b.Max.X, (*blocks)*(*blocks)*(*blocks))
}

// checkFlags rejects the flag values no generator can make a catalog from
// or write out.
func checkFlags(kind string, n int, boxLen float64, blocks, steps int, dt float64, mesh int) error {
	switch {
	case !slices.Contains(kinds, kind):
		return fmt.Errorf("-kind %q: need one of %s", kind, strings.Join(kinds, ", "))
	case n < 1:
		return fmt.Errorf("-n %d: need at least one particle", n)
	case !(boxLen > 0) || math.IsInf(boxLen, 1):
		return fmt.Errorf("-box %v: need a positive, finite edge length", boxLen)
	case blocks < 1:
		return fmt.Errorf("-blocks %d: need at least one block per dimension", blocks)
	case steps < 0:
		return fmt.Errorf("-steps %d: need zero or more steps", steps)
	case !(dt > 0) || math.IsInf(dt, 1):
		return fmt.Errorf("-dt %v: need a positive, finite time step", dt)
	case mesh < 1 || mesh&(mesh-1) != 0:
		return fmt.Errorf("-mesh %d: need a power of two", mesh)
	}
	return nil
}
