package render

import (
	"context"
	"errors"
	"math"
	"testing"

	"godtfe/internal/geom"
)

// TestSlabMarchesSameBits cuts a slab for each of five column tiles and
// checks that the slab's Marcher renders the tile bit for bit as the whole
// mesh's does, with the same outcome counts and steps, ε and step cap,
// while carrying fewer tets than the whole mesh.
func TestSlabMarchesSameBits(t *testing.T) {
	for name, pts := range equivCatalogs() {
		t.Run(name, func(t *testing.T) {
			f := fieldFor(t, pts)
			whole := NewMarcher(f)
			spec := equivSpec(pts)
			for k := range 5 {
				tile := Tile{I0: k * spec.Nx / 5, I1: (k + 1) * spec.Nx / 5}
				s := CutSlab(f, spec, tile)
				m, err := NewSlabMarcher(&s)
				if err != nil {
					t.Fatal(err)
				}
				if m.eps != whole.eps || m.maxSteps != whole.maxSteps {
					t.Fatalf("tile %v: slab ε %g and step cap %d, whole mesh %g and %d", tile, m.eps, m.maxSteps, whole.eps, whole.maxSteps)
				}
				if k > 0 && k < 4 && len(m.soa.tets) >= len(whole.soa.tets) {
					t.Errorf("tile %v: slab carries %d of %d tets", tile, len(m.soa.tets), len(whole.soa.tets))
				}
				want, wstats, err := whole.RenderTileCtx(context.Background(), spec, tile, 2)
				if err != nil {
					t.Fatal(err)
				}
				got, gstats, err := m.RenderTileCtx(context.Background(), spec, tile, 2)
				if err != nil {
					t.Fatalf("tile %v: %v", tile, err)
				}
				if got.Checksum() != want.Checksum() {
					t.Fatalf("tile %v: slab render differs from the whole mesh's", tile)
				}
				if TotalOutcomes(gstats) != TotalOutcomes(wstats) || steps(gstats) != steps(wstats) {
					t.Fatalf("tile %v: outcomes %v in %d steps, whole mesh %v in %d",
						tile, TotalOutcomes(gstats), steps(gstats), TotalOutcomes(wstats), steps(wstats))
				}
			}
		})
	}
}

func steps(stats []WorkerStat) (n int64) {
	for _, s := range stats {
		n += s.Steps
	}
	return n
}

// TestLadderReachBound walks both perturbation ladders at every rung with
// the diagonal nudge, which moves ξ by the full ε·2^rung in x each retry,
// and checks that the farthest x displacement is exactly ladderReach ε:
// the bound holds and is attained. It also pins the bound's value, which
// is what the slab pad costs in columns.
func TestLadderReachBound(t *testing.T) {
	m := &Marcher{eps: 1e-9}
	start := geom.Vec2{X: 0.25, Y: 0.5}
	var far float64
	for _, base := range []int{0, maxRetries + 1} {
		xi := start
		for a := 0; a < maxRetries; a++ {
			xi = m.perturb(xi, -1, base+a)
			far = max(far, math.Abs(xi.X-start.X))
		}
	}
	bound := m.eps * ladderReach()
	if far > bound*(1+1e-9) || far < bound*(1-1e-9) {
		t.Fatalf("ladders reach %g in x, bound %g", far, bound)
	}
	if want := float64(1<<17+1<<18+1<<19+13<<20) * 1e-9; bound != want {
		t.Fatalf("ladderReach ε = %g, want %g (the fallback ladder)", bound, want)
	}
}

// TestNarrowSlabFails marches a slab cut narrower than its span claims
// and gets ErrOutsideSlab, never a short Σ; a tile beyond the span of an
// honest slab fails the same way before any march.
func TestNarrowSlabFails(t *testing.T) {
	pts := equivCatalogs()["clustered"]
	f := fieldFor(t, pts)
	spec := equivSpec(pts)
	spec.Samples = 1
	tile := Tile{I0: 16, I1: 32}
	x0, x1 := spec.colX(tile.I0), spec.colX(tile.I1)
	eps := marchEps(f.Tri.Points())
	// The tets meet only the middle of the tile's span.
	s := cutSlab(f, x0, x1, eps, -0.45*(x1-x0))
	m, err := NewSlabMarcher(&s)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.RenderTileCtx(context.Background(), spec, tile, 2); !errors.Is(err, ErrOutsideSlab) {
		t.Fatalf("narrow slab: %v, want ErrOutsideSlab", err)
	}
	s = CutSlab(f, spec, tile)
	if m, err = NewSlabMarcher(&s); err != nil {
		t.Fatal(err)
	}
	for _, beyond := range []Tile{{I0: 15, I1: 20}, {I0: 30, I1: 33}} {
		if _, _, err := m.RenderTileCtx(context.Background(), spec, beyond, 1); !errors.Is(err, ErrOutsideSlab) {
			t.Fatalf("tile %v beyond the slab's span: %v, want ErrOutsideSlab", beyond, err)
		}
	}
	if _, _, err := m.Render(spec, 1, ScheduleDynamic); !errors.Is(err, ErrOutsideSlab) {
		t.Fatalf("whole grid from a slab: %v, want ErrOutsideSlab", err)
	}
}
