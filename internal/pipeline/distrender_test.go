package pipeline

import (
	"math"
	"testing"

	"godtfe/internal/delaunay"
	"godtfe/internal/dtfe"
	"godtfe/internal/geom"
	"godtfe/internal/mpi"
	"godtfe/internal/particleio"
	"godtfe/internal/render"
	"godtfe/internal/synth"
)

// TestRunDistributedRender drives the phase wrapper end to end: a catalog
// poisoned with invalid particles is sanitized under the drop policy, then
// rendered over 1 and 4 ranks; both runs must be byte-identical to a
// single-rank render of the sanitized catalog, and the ingestion ledger
// must account for the poison.
func TestRunDistributedRender(t *testing.T) {
	box := geom.AABB{Min: geom.Vec3{}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	pts := synth.HaloSet(900, box, synth.DefaultHaloSpec(), 3)
	dirty := append(append([]geom.Vec3{}, pts...),
		geom.Vec3{X: math.NaN(), Y: 0.5, Z: 0.5},
		geom.Vec3{X: 0.1, Y: math.Inf(1), Z: 0.2},
	)

	b := geom.BoundsOf(pts)
	const n = 40
	pad := 0.02
	w := math.Max(b.Max.X-b.Min.X, b.Max.Y-b.Min.Y) + 2*pad
	spec := render.Spec{
		Min: geom.Vec2{X: b.Min.X - pad, Y: b.Min.Y - pad},
		Nx:  n, Ny: n, Cell: w / n, Samples: 2, Seed: 9,
	}

	// Single-rank reference over the sanitized catalog.
	clean, _, _, err := particleio.ValidateParticles(dirty, nil,
		particleio.ValidateOptions{Policy: particleio.PolicyDrop})
	if err != nil {
		t.Fatal(err)
	}
	tri, err := delaunay.New(clean)
	if err != nil {
		t.Fatal(err)
	}
	f, err := dtfe.NewField(tri, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := render.NewMarcher(f).Render(spec, 2, render.ScheduleDynamic)
	if err != nil {
		t.Fatal(err)
	}

	for _, ranks := range []int{1, 4} {
		cfg := DistRenderConfig{
			Spec: spec, Workers: 2, Tiles: 5,
			Ingest: particleio.ValidateOptions{Policy: particleio.PolicyDrop},
		}
		var out *DistRenderResult
		w := mpi.NewWorld(ranks)
		errs := w.RunEach(func(c *mpi.Comm) error {
			catalog := dirty
			if c.Rank() != 0 {
				catalog = nil
			}
			r, err := RunDistributedRender(c, cfg, catalog)
			if c.Rank() == 0 {
				out = r
			}
			return err
		})
		for r, e := range errs {
			if e != nil {
				t.Fatalf("ranks=%d rank %d: %v", ranks, r, e)
			}
		}
		if out == nil || out.Result == nil || out.Incomplete {
			t.Fatalf("ranks=%d: missing or partial result", ranks)
		}
		if out.Ingest.Dropped != 2 || out.Ingest.NonFinite != 2 {
			t.Fatalf("ranks=%d: ingest ledger %+v missed the poisoned particles", ranks, out.Ingest)
		}
		for j := 0; j < spec.Ny; j++ {
			for i := 0; i < spec.Nx; i++ {
				a, b := ref.At(i, j), out.Grid.At(i, j)
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("ranks=%d cell (%d,%d): reference %v, distributed %v", ranks, i, j, a, b)
				}
			}
		}
		if out.RenderTime <= 0 || out.IngestTime < 0 {
			t.Fatalf("ranks=%d: phase timings not recorded: %+v", ranks, out)
		}
	}
}

// TestRunDistributedRenderTreeFanout: the phase wrapper passes the gather
// topology through — an explicit fanout with interior ranks is reported
// back and still stitches bit-identically to a one-rank run.
func TestRunDistributedRenderTreeFanout(t *testing.T) {
	box := geom.AABB{Min: geom.Vec3{}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	pts := synth.HaloSet(700, box, synth.DefaultHaloSpec(), 11)
	b := geom.BoundsOf(pts)
	const n = 32
	pad := 0.02
	w := math.Max(b.Max.X-b.Min.X, b.Max.Y-b.Min.Y) + 2*pad
	spec := render.Spec{
		Min: geom.Vec2{X: b.Min.X - pad, Y: b.Min.Y - pad},
		Nx:  n, Ny: n, Cell: w / n, Samples: 2, Seed: 4,
	}

	run := func(ranks int, cfg DistRenderConfig) *DistRenderResult {
		t.Helper()
		var out *DistRenderResult
		world := mpi.NewWorld(ranks)
		errs := world.RunEach(func(c *mpi.Comm) error {
			catalog := pts
			if c.Rank() != 0 {
				catalog = nil
			}
			r, err := RunDistributedRender(c, cfg, catalog)
			if c.Rank() == 0 {
				out = r
			}
			return err
		})
		for r, e := range errs {
			if e != nil {
				t.Fatalf("ranks=%d rank %d: %v", ranks, r, e)
			}
		}
		if out == nil || out.Result == nil || out.Incomplete {
			t.Fatalf("ranks=%d: missing or partial result", ranks)
		}
		return out
	}

	base := DistRenderConfig{Spec: spec, Workers: 2, Tiles: 7}
	ref := run(1, base)

	treeCfg := base
	treeCfg.Fanout = 2
	tree := run(5, treeCfg)
	if tree.Fanout != 2 {
		t.Fatalf("fanout not passed through: Fanout=%d", tree.Fanout)
	}
	for j := 0; j < spec.Ny; j++ {
		for i := 0; i < spec.Nx; i++ {
			a, b := ref.Grid.At(i, j), tree.Grid.At(i, j)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("cell (%d,%d): reference %v, tree %v", i, j, a, b)
			}
		}
	}
}
