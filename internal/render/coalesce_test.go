package render

import (
	"context"
	"testing"

	"godtfe/internal/geom"
)

func TestFamilyAndUnion(t *testing.T) {
	base := Spec{Min: geom.Vec2{X: -0.1, Y: 0.2}, Nx: 32, Ny: 48, Cell: 0.03, Samples: 2, Seed: 5}
	wider := base
	wider.Nx, wider.Ny = 64, 16
	if !SameFamily(base, wider) {
		t.Fatal("extent-only variants must share a family")
	}
	for name, mut := range map[string]func(*Spec){
		"min":     func(s *Spec) { s.Min.X += 1e-16 },
		"cell":    func(s *Spec) { s.Cell *= 1.0000000001 },
		"seed":    func(s *Spec) { s.Seed++ },
		"samples": func(s *Spec) { s.Samples++ },
		"zclip":   func(s *Spec) { s.ZMin, s.ZMax = 0.1, 0.9 },
		"nz":      func(s *Spec) { s.Nz = 8 },
	} {
		alt := base
		mut(&alt)
		if SameFamily(base, alt) {
			t.Fatalf("%s change must split the family", name)
		}
	}
	u, err := UnionSpec([]Spec{base, wider})
	if err != nil {
		t.Fatal(err)
	}
	if u.Nx != 64 || u.Ny != 48 || !SameFamily(u, base) {
		t.Fatalf("bad union %+v", u)
	}
	alt := base
	alt.Seed++
	if _, err := UnionSpec([]Spec{base, alt}); err == nil {
		t.Fatal("cross-family union accepted")
	}
	if _, err := UnionSpec(nil); err == nil {
		t.Fatal("empty union accepted")
	}
}

// TestRenderRunsBitIdentical: assembling a grid from disjoint column runs
// via RenderRunsCtx must be byte-identical to one whole-grid Render, for
// every catalog regime, including runs that only partially cover the grid
// (the cover-plan shape the column cache produces).
func TestRenderRunsBitIdentical(t *testing.T) {
	for name, pts := range equivCatalogs() {
		t.Run(name, func(t *testing.T) {
			m := NewMarcher(fieldFor(t, pts))
			spec := equivSpec(pts)
			want, _, err := m.Render(spec, 2, ScheduleDynamic)
			if err != nil {
				t.Fatal(err)
			}
			// Full cover from uneven runs.
			dst := spec.Grid()
			runs := []Tile{{0, 5}, {5, 17}, {17, 18}, {18, spec.Nx}}
			if _, err := m.RenderRunsCtx(context.Background(), spec, runs, dst, 2); err != nil {
				t.Fatal(err)
			}
			if dst.Checksum() != want.Checksum() {
				t.Fatal("run-assembled grid differs from whole-grid render")
			}
			// Partial cover: untouched columns stay as pre-seeded, marched
			// columns match the direct render bit for bit.
			part := spec.Grid()
			for i := range part.Data {
				part.Data[i] = -1
			}
			if _, err := m.RenderRunsCtx(context.Background(), spec, []Tile{{3, 9}, {40, 44}}, part, 1); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < spec.Ny; j++ {
				for i := 0; i < spec.Nx; i++ {
					in := (i >= 3 && i < 9) || (i >= 40 && i < 44)
					got := part.At(i, j)
					if in && got != want.At(i, j) {
						t.Fatalf("marched cell (%d,%d) differs", i, j)
					}
					if !in && got != -1 {
						t.Fatalf("cell (%d,%d) outside runs was written", i, j)
					}
				}
			}
		})
	}
}

func TestRenderRunsValidation(t *testing.T) {
	pts := equivCatalogs()["lattice"]
	m := NewMarcher(fieldFor(t, pts))
	spec := equivSpec(pts)
	dst := spec.Grid()
	bg := context.Background()
	if _, err := m.RenderRunsCtx(bg, spec, []Tile{{5, 3}}, dst, 1); err == nil {
		t.Fatal("inverted run accepted")
	}
	if _, err := m.RenderRunsCtx(bg, spec, []Tile{{0, spec.Nx + 1}}, dst, 1); err == nil {
		t.Fatal("out-of-range run accepted")
	}
	if _, err := m.RenderRunsCtx(bg, spec, []Tile{{4, 8}, {6, 10}}, dst, 1); err == nil {
		t.Fatal("overlapping runs accepted")
	}
	small := spec
	small.Nx--
	if _, err := m.RenderRunsCtx(bg, spec, []Tile{{0, 1}}, small.Grid(), 1); err == nil {
		t.Fatal("mismatched dst accepted")
	}
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err := m.RenderRunsCtx(ctx, spec, []Tile{{0, spec.Nx}}, dst, 1); err != context.Canceled {
		t.Fatalf("cancelled render returned %v", err)
	}
}

// TestSliceSubBitIdentical: a window sliced out of a larger family
// member's render must be byte-identical to rendering the window spec
// directly — the core soundness claim of shared-march batching.
func TestSliceSubBitIdentical(t *testing.T) {
	for name, pts := range equivCatalogs() {
		t.Run(name, func(t *testing.T) {
			m := NewMarcher(fieldFor(t, pts))
			union := equivSpec(pts)
			shared, _, err := m.Render(union, 2, ScheduleDynamic)
			if err != nil {
				t.Fatal(err)
			}
			for _, win := range [][2]int{{union.Nx, union.Ny}, {1, 1}, {17, union.Ny}, {union.Nx, 9}, {31, 23}} {
				sub := union
				sub.Nx, sub.Ny = win[0], win[1]
				sliced, err := SliceSub(shared, sub)
				if err != nil {
					t.Fatal(err)
				}
				direct, _, err := m.Render(sub, 1, ScheduleDynamic)
				if err != nil {
					t.Fatal(err)
				}
				if sliced.Checksum() != direct.Checksum() {
					t.Fatalf("slice %dx%d differs from direct render", win[0], win[1])
				}
			}
			big := union
			big.Nx++
			if _, err := SliceSub(shared, big); err == nil {
				t.Fatal("oversized slice accepted")
			}
			off := union
			off.Min.X += off.Cell
			if _, err := SliceSub(shared, off); err == nil {
				t.Fatal("shifted-origin slice accepted")
			}
		})
	}
}
