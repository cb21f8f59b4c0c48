package render

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"godtfe/internal/delaunay"
	"godtfe/internal/dtfe"
	"godtfe/internal/geom"
	"godtfe/internal/synth"
)

func ctxTestMarcher(t testing.TB, n int) *Marcher {
	t.Helper()
	box := geom.AABB{Min: geom.Vec3{}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	pts := synth.HaloSet(n, box, synth.DefaultHaloSpec(), 11)
	tri, err := delaunay.New(pts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := dtfe.NewField(tri, nil)
	if err != nil {
		t.Fatal(err)
	}
	return NewMarcher(f)
}

func ctxTestSpec(n int) Spec {
	pad := 0.02
	return Spec{
		Min: geom.Vec2{X: -pad, Y: -pad},
		Nx:  n, Ny: n, Cell: (1 + 2*pad) / float64(n),
		Samples: 2, Seed: 9,
	}
}

// An uncancelled RenderCtx must be bit-identical to Render, and a tile
// from RenderTileCtx to the same columns of the whole grid — the context
// plumbing adds no numerical side effects.
func TestRenderCtxBitIdentical(t *testing.T) {
	m := ctxTestMarcher(t, 900)
	spec := ctxTestSpec(40)
	want, _, err := m.Render(spec, 3, ScheduleDynamic)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := m.RenderCtx(context.Background(), spec, 3, ScheduleDynamic)
	if err != nil {
		t.Fatal(err)
	}
	if got.Checksum() != want.Checksum() {
		t.Fatal("RenderCtx diverges from Render")
	}
	tile := Tile{I0: 8, I1: 24}
	wt, err := want.SubGrid(tile.I0, 0, tile.Width(), spec.Ny)
	if err != nil {
		t.Fatal(err)
	}
	gt, _, err := m.RenderTileCtx(context.Background(), spec, tile, 2)
	if err != nil {
		t.Fatal(err)
	}
	if gt.Checksum() != wt.Checksum() {
		t.Fatal("RenderTileCtx diverges from the whole grid's columns")
	}
}

// A context cancelled mid-render must abort the column loop promptly (the
// workers poll the cancel flag once per column) and surface the context's
// error; an already-expired context must not march at all.
func TestRenderCtxCancellation(t *testing.T) {
	m := ctxTestMarcher(t, 2500)
	spec := ctxTestSpec(512)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, _, err := m.RenderCtx(ctx, spec, 2, ScheduleDynamic)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		// Generous bound: the render itself takes far longer than this;
		// returning early proves the workers released mid-grid.
		if el := time.Since(start); el > 5*time.Second {
			t.Fatalf("cancel took %v", el)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled render never returned")
	}

	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	g, stats, err := m.RenderCtx(expired, spec, 2, ScheduleDynamic)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired ctx: err = %v", err)
	}
	if g != nil {
		t.Fatal("expired ctx returned a grid")
	}
	for _, s := range stats {
		if s.Cells != 0 {
			t.Fatal("expired ctx marched cells")
		}
	}
}

// A deadline that expires partway through leaves a partial stats trail but
// no grid, and the error is DeadlineExceeded.
func TestRenderCtxDeadline(t *testing.T) {
	m := ctxTestMarcher(t, 2500)
	spec := ctxTestSpec(512)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	g, _, err := m.RenderCtx(ctx, spec, 2, ScheduleDynamic)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if g != nil {
		t.Fatal("deadline-exceeded render returned a grid")
	}
	// The marcher must remain fully usable after an aborted render.
	small := ctxTestSpec(16)
	g2, _, err := m.Render(small, 2, ScheduleDynamic)
	if err != nil || g2 == nil {
		t.Fatalf("render after abort: %v", err)
	}
	if lo, _ := g2.MinMax(); math.IsNaN(lo) {
		t.Fatal("NaN after aborted render")
	}
}
