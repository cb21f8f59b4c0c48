package pipeline

import (
	"errors"
	"math"
	"testing"

	"godtfe/internal/geom"
	"godtfe/internal/geomerr"
	"godtfe/internal/mpi"
	"godtfe/internal/particleio"
	"godtfe/internal/synth"
)

// dirtyCatalog builds a clustered catalog polluted with NaN/Inf particles
// and a grid-aligned lattice patch (degenerate columns for the marcher).
func dirtyCatalog() (pts []geom.Vec3, nBad int) {
	pts = synth.HaloSet(4000, unitBox(), synth.DefaultHaloSpec(), 11)
	// Lattice patch around one field center: grid-aligned points whose
	// columns strike vertices and edges exactly.
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			for k := 0; k < 6; k++ {
				pts = append(pts, geom.Vec3{
					X: 0.25 + float64(i)*0.02,
					Y: 0.25 + float64(j)*0.02,
					Z: 0.25 + float64(k)*0.02,
				})
			}
		}
	}
	// Injected garbage, spread through the slice so every rank's strided
	// share sees some.
	bad := []geom.Vec3{
		{X: math.NaN(), Y: 0.5, Z: 0.5},
		{X: 0.5, Y: math.Inf(1), Z: 0.5},
		{X: 0.5, Y: 0.5, Z: math.Inf(-1)},
		{X: math.NaN(), Y: math.NaN(), Z: math.NaN()},
	}
	out := make([]geom.Vec3, 0, len(pts)+len(bad))
	for i, p := range pts {
		if i%997 == 0 && len(bad) > 0 {
			out = append(out, bad[0])
			bad = bad[1:]
			nBad++
		}
		out = append(out, p)
	}
	return out, nBad + len(bad) // any bad left over are appended below
}

// TestPipelineEndToEndDirtyCatalog is the acceptance e2e: a full pipeline
// run over a catalog with injected NaN/Inf particles and degenerate
// (lattice-aligned) columns must complete and itemize both the dropped
// particles and the per-column outcomes. Runs under the race detector via
// `make race`.
func TestPipelineEndToEndDirtyCatalog(t *testing.T) {
	pts, nBad := dirtyCatalog()
	centers := []geom.Vec3{
		{X: 0.3, Y: 0.3, Z: 0.3}, // covers the lattice patch
		{X: 0.6, Y: 0.6, Z: 0.6},
		{X: 0.5, Y: 0.25, Z: 0.75},
	}
	cfg := Config{
		Box: unitBox(), FieldLen: 0.14, GridN: 12, KeepFields: true, Seed: 7,
		Ingest: particleio.ValidateOptions{Policy: particleio.PolicyDrop},
	}
	for _, ranks := range []int{1, 4} {
		results := runPipeline(t, ranks, cfg, pts, centers)
		items, dropped := 0, 0
		var cols int64
		for _, r := range results {
			items += len(r.Items)
			dropped += r.Ingest.Dropped
			cols += r.Columns.Total()
			if r.Incomplete {
				t.Fatalf("ranks=%d: run incomplete: %v", ranks, r.Failures)
			}
			if r.Ingest.Dropped != r.Ingest.NonFinite {
				t.Fatalf("ranks=%d: drop ledger inconsistent: %v", ranks, r.Ingest)
			}
			for _, rec := range r.Items {
				if rec.Err != "" {
					t.Fatalf("ranks=%d: item at %v failed: %s", ranks, rec.Center, rec.Err)
				}
				if rec.Columns.Total() == 0 {
					t.Fatalf("ranks=%d: item at %v has no column outcomes", ranks, rec.Center)
				}
				if rec.Columns.Abandoned != 0 {
					t.Fatalf("ranks=%d: item at %v abandoned columns: %v", ranks, rec.Center, rec.Columns)
				}
			}
		}
		if items != len(centers) {
			t.Fatalf("ranks=%d: computed %d items, want %d", ranks, items, len(centers))
		}
		if dropped != nBad {
			t.Fatalf("ranks=%d: dropped %d particles, injected %d", ranks, dropped, nBad)
		}
		wantCols := int64(len(centers) * cfg.GridN * cfg.GridN)
		if cols != wantCols {
			t.Fatalf("ranks=%d: %d column outcomes, want %d", ranks, cols, wantCols)
		}
	}
}

// TestPipelineFailFastOnDirtyCatalog: the default (zero-value) ingestion
// policy rejects the catalog with a typed error instead of computing on
// garbage.
func TestPipelineFailFastOnDirtyCatalog(t *testing.T) {
	pts := synth.Uniform(500, unitBox(), 3)
	pts[137] = geom.Vec3{X: math.NaN(), Y: 0.5, Z: 0.5}
	centers := []geom.Vec3{{X: 0.5, Y: 0.5, Z: 0.5}}
	cfg := Config{Box: unitBox(), FieldLen: 0.2, GridN: 8, Seed: 1}
	var runErr error
	if err := mpi.Run(1, func(c *mpi.Comm) error {
		_, runErr = Run(c, cfg, pts, centers)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(runErr, geomerr.ErrBadParticle) {
		t.Fatalf("want ErrBadParticle, got %v", runErr)
	}
}

// TestPipelineDegenerateItemRendersEmpty: an item whose cube holds enough
// particles but all on one plane yields a degenerate-input error; the
// field renders empty with the reason on the record, and the run is NOT
// marked incomplete (degraded, not failed).
func TestPipelineDegenerateItemRendersEmpty(t *testing.T) {
	// A coplanar sheet inside the first field's cube plus a healthy cloud
	// in the second field's cube.
	var pts []geom.Vec3
	for i := 0; i < 40; i++ {
		for j := 0; j < 5; j++ {
			pts = append(pts, geom.Vec3{
				X: 0.2 + float64(i)*0.002,
				Y: 0.2 + float64(j)*0.02,
				Z: 0.25, // all on z = 0.25
			})
		}
	}
	pts = append(pts, synth.Uniform(3000, unitBox(), 9)...)
	// Keep the cloud out of the sheet's cube so the sheet stays coplanar.
	cube := geom.AABB{
		Min: geom.Vec3{X: 0.12, Y: 0.12, Z: 0.17},
		Max: geom.Vec3{X: 0.38, Y: 0.38, Z: 0.43},
	}
	for i := 200; i < len(pts); i++ {
		if cube.Contains(pts[i]) {
			pts[i].Z = math.Mod(pts[i].Z+0.3, 1)
			if cube.Contains(pts[i]) {
				pts[i].X = math.Mod(pts[i].X+0.4, 1)
			}
		}
	}
	centers := []geom.Vec3{
		{X: 0.25, Y: 0.25, Z: 0.3}, // sheet: degenerate input
		{X: 0.7, Y: 0.7, Z: 0.7},   // healthy
	}
	cfg := Config{
		Box: unitBox(), FieldLen: 0.1, GridN: 8, KeepFields: true, Seed: 2,
		Ingest: particleio.ValidateOptions{Policy: particleio.PolicyDrop},
	}
	results := runPipeline(t, 1, cfg, pts, centers)
	r := results[0]
	if r.Incomplete {
		t.Fatalf("degenerate input must degrade, not fail the run: %v", r.Failures)
	}
	var sawDegenerate, sawHealthy bool
	for _, rec := range r.Items {
		switch rec.Center {
		case centers[0]:
			if rec.Err == "" {
				t.Fatalf("coplanar item should carry a degeneracy error (N=%d)", rec.N)
			}
			sawDegenerate = true
		case centers[1]:
			if rec.Err != "" {
				t.Fatalf("healthy item errored: %s", rec.Err)
			}
			sawHealthy = true
		}
	}
	if !sawDegenerate || !sawHealthy {
		t.Fatalf("missing items: degenerate=%v healthy=%v", sawDegenerate, sawHealthy)
	}
	// Status: both fields are accounted as done (the degenerate one is an
	// empty field, not a lost one).
	for _, st := range r.Status {
		if st.State != FieldDone {
			t.Fatalf("field at %v state %v, want done", st.Center, st.State)
		}
	}
}
