// Command dtfe-render reconstructs one surface-density field from a
// particle file and writes it as a PGM image (log scale) plus a text
// summary. It can run any of the three kernels for comparison.
//
// Usage:
//
//	dtfe-render -i particles.dtfe -grid 512 -kernel marching -o sigma.pgm
//
// With -ranks > 1 the marching kernel runs the distributed fan-out over an
// in-process MPI world: the catalog is replicated, the grid is cut into
// cost-balanced column tiles (-tiles), scattered over the ranks, marched,
// and gathered bit-identically to the single-rank render. Every worker
// sends each tile straight to rank 0 once, and rank 0 re-dispatches every
// tile that does not arrive, from a lost or stalled rank. Rank 0 of that world
// builds the one mesh and sends each worker only the slab of it that the
// worker's tiles cross, which the worker marches rather than build its own
// mesh; -v, which reports a local build, and the other kernels, which only
// run locally, are refused.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"godtfe/internal/delaunay"
	"godtfe/internal/dtfe"
	"godtfe/internal/geom"
	"godtfe/internal/grid"
	"godtfe/internal/mpi"
	"godtfe/internal/particleio"
	"godtfe/internal/render"
	"godtfe/internal/render/distrender"
)

func main() {
	in := flag.String("i", "particles.dtfe", "input particle file")
	gridN := flag.Int("grid", 512, "output grid resolution")
	kernel := flag.String("kernel", "marching", "kernel: marching | walking | zeroorder")
	nz := flag.Int("nz", 0, "z samples for the 3D-grid kernels (default: grid)")
	samples := flag.Int("samples", 1, "Monte Carlo lines per cell")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "render workers")
	out := flag.String("o", "sigma.pgm", "output PGM path")
	ingest := flag.String("ingest", "fail", "invalid-particle policy: fail | drop | clamp")
	ranks := flag.Int("ranks", 1, "simulated MPI ranks for the distributed marching render")
	tiles := flag.Int("tiles", 0, "column tiles for -ranks > 1 (default: 2x ranks, cost-balanced)")
	deadline := flag.Duration("deadline", 0, "abort a distributed render after this long (0: no deadline)")
	verbose := flag.Bool("v", false, "print the build's insert-loop counters (walk, conflict tests, cavity per insert) and the marcher's resident bytes; -ranks 1 only")
	flag.Parse()
	if err := checkFlags(*gridN, *kernel, *nz, *samples, *workers, *ranks, *tiles, *deadline, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "dtfe-render:", err)
		flag.Usage()
		os.Exit(2)
	}

	policy, err := particleio.ParsePolicy(*ingest)
	if err != nil {
		log.Fatalf("ingest: %v", err)
	}
	pts, rep, err := particleio.ReadAllValidated(*in, particleio.ValidateOptions{Policy: policy})
	if err != nil {
		log.Fatalf("read: %v", err)
	}
	if !rep.Clean() {
		fmt.Printf("%v\n", rep)
	}
	box := geom.BoundsOf(pts)
	fmt.Printf("%d particles in [%g..%g]x[%g..%g]x[%g..%g]\n", len(pts),
		box.Min.X, box.Max.X, box.Min.Y, box.Max.Y, box.Min.Z, box.Max.Z)

	sz := box.Size()
	cell := sz.X / float64(*gridN)
	ny := int(sz.Y/cell) + 1
	spec := render.Spec{
		Min: geom.Vec2{X: box.Min.X, Y: box.Min.Y}, Nx: *gridN, Ny: ny, Cell: cell,
		ZMin: box.Min.Z, ZMax: box.Max.Z,
		Nz:      *nz,
		Samples: *samples,
	}
	if spec.Nz == 0 {
		spec.Nz = *gridN
	}

	var g *grid.Grid2D
	var stats []render.WorkerStat
	t1 := time.Now()
	if *ranks > 1 {
		g, stats, err = distributedRender(spec, pts, *ranks, *tiles, *workers, *deadline)
	} else {
		var tri *delaunay.Triangulation
		if tri, err = delaunay.New(pts); err != nil {
			log.Fatalf("triangulate: %v", err)
		}
		var field *dtfe.Field
		if field, err = dtfe.NewField(tri, nil); err != nil {
			log.Fatalf("dtfe: %v", err)
		}
		fmt.Printf("triangulation: %v (%s)\n", time.Since(t1).Round(time.Millisecond), tri.Stats())
		if *verbose {
			fmt.Printf("build: %v\n", tri.BuildStats())
		}
		t1 = time.Now()
		switch *kernel {
		case "marching":
			m := render.NewMarcher(field)
			if *verbose {
				fmt.Printf("marcher: %d bytes (%.0f B/particle)\n", m.Bytes(), float64(m.Bytes())/float64(len(pts)))
			}
			g, stats, err = m.Render(spec, *workers, render.ScheduleDynamic)
		case "walking":
			g, stats, err = render.NewWalker(field).Render(spec, *workers)
		case "zeroorder":
			var vorDen []float64
			vorDen, _, err = dtfe.VoronoiDensities(tri, nil)
			if err != nil {
				log.Fatalf("voronoi: %v", err)
			}
			g, stats, err = render.NewZeroOrder(pts, vorDen).Render(spec, *workers)
		}
	}
	if err != nil {
		log.Fatalf("render: %v", err)
	}
	fmt.Printf("render (%s): %v wall, %v total worker busy\n",
		*kernel, time.Since(t1).Round(time.Millisecond), render.TotalBusy(stats).Round(time.Millisecond))
	if oc := render.TotalOutcomes(stats); oc.Total() > 0 {
		fmt.Printf("columns: %v\n", oc)
	}
	lo, hi := g.MinMax()
	fmt.Printf("sigma: min=%.4g max=%.4g projected mass=%.6g (input %d)\n",
		lo, hi, g.Integral(), len(pts))

	f, err := os.Create(*out)
	if err != nil {
		log.Fatalf("create: %v", err)
	}
	defer f.Close()
	if err := g.WritePGM(f, true); err != nil {
		log.Fatalf("pgm: %v", err)
	}
	fmt.Printf("wrote %s (%dx%d)\n", *out, g.Nx, g.Ny)
}

// checkFlags rejects, before the catalog is read, the flag values no render
// can run with, and -ranks > 1 beside what only a local mesh provides.
func checkFlags(gridN int, kernel string, nz, samples, workers, ranks, tiles int, deadline time.Duration, verbose bool) error {
	switch {
	case gridN < 1:
		return fmt.Errorf("-grid %d: need at least one column", gridN)
	case kernel != "marching" && kernel != "walking" && kernel != "zeroorder":
		return fmt.Errorf("-kernel %q: want marching, walking or zeroorder", kernel)
	case nz < 0:
		return fmt.Errorf("-nz %d: need zero (the default: -grid) or more z samples", nz)
	case samples < 1:
		return fmt.Errorf("-samples %d: need at least one line per cell", samples)
	case workers < 1:
		return fmt.Errorf("-workers %d: need at least one worker", workers)
	case ranks < 1:
		return fmt.Errorf("-ranks %d: need at least one rank", ranks)
	case tiles < 0:
		return fmt.Errorf("-tiles %d: need zero (the default) or more tiles", tiles)
	case deadline < 0:
		return fmt.Errorf("-deadline %v: need zero (no deadline) or a positive duration", deadline)
	case ranks > 1 && (kernel != "marching" || verbose):
		return errors.New("-ranks > 1 shards the marching kernel over rank 0's mesh and reports no local build; it cannot be combined with -kernel walking|zeroorder or -v")
	}
	return nil
}

// distributedRender fans the marching render out over an in-process MPI
// world and returns the stitched grid with globally re-based worker stats.
// A non-zero deadline bounds the whole render: when it passes, the
// coordinator cancels the run, drains the workers, and the typed
// cancellation error is reported with the partial-progress accounting.
func distributedRender(spec render.Spec, pts []geom.Vec3, ranks, tiles, workers int, deadline time.Duration) (*grid.Grid2D, []render.WorkerStat, error) {
	cfg := distrender.Config{Spec: spec, Tiles: tiles, Workers: workers}
	ctx := context.Background()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	var res *distrender.Result
	var resErr error
	w := mpi.NewWorld(ranks)
	errs := w.RunEach(func(c *mpi.Comm) error {
		catalog := pts
		rctx := context.Background()
		if c.Rank() != 0 {
			catalog = nil
		} else {
			rctx = ctx
		}
		r, err := distrender.RunCtx(rctx, c, cfg, catalog)
		if c.Rank() == 0 {
			res, resErr = r, err
		}
		return err
	})
	var ce *distrender.CancelledError
	if errors.As(resErr, &ce) {
		fmt.Printf("deadline exceeded after %v: %d/%d tiles stitched, %d lost\n",
			deadline, ce.Done, ce.Total, ce.Total-ce.Done)
		if res != nil {
			for _, f := range res.Failures {
				fmt.Printf("  %s\n", f)
			}
		}
		return nil, nil, resErr
	}
	if resErr != nil {
		return nil, nil, resErr
	}
	for r, e := range errs {
		if e != nil {
			return nil, nil, fmt.Errorf("rank %d: %w", r, e)
		}
	}
	fmt.Printf("distributed: %d ranks, %d tiles, %d re-dispatched\n",
		ranks, len(res.Tiles), res.Redispatched)
	return res.Grid, res.Stats, nil
}
