package distrender

import (
	"context"
	"errors"
	"testing"
	"time"

	"godtfe/internal/geom"
	"godtfe/internal/mpi"
	"godtfe/internal/render"
	"godtfe/internal/synth"
)

// cancelSpec is big enough that a 4-rank render takes well over the cancel
// delay, so a mid-flight cancellation really does cut tiles short.
func cancelSpec() ([]geom.Vec3, render.Spec) {
	box := geom.AABB{Min: geom.Vec3{}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	pts := synth.HaloSet(2500, box, synth.DefaultHaloSpec(), 7)
	return pts, render.Spec{
		Min: geom.Vec2{X: -0.02, Y: -0.02},
		Nx:  256, Ny: 256, Cell: 1.04 / 256,
		Samples: 2, Seed: 5,
	}
}

// runCancelled launches a world, cancels the coordinator's context, and
// returns rank 0's result and error. RunEach returning at all is the drain
// proof: it blocks until every rank's goroutine exits.
func runCancelled(t *testing.T, ranks int, cfg Config, ctx context.Context) (*Result, error) {
	t.Helper()
	pts, spec := cancelSpec()
	cfg.Spec = spec
	cfg.Poll = 5 * time.Millisecond

	var res *Result
	var resErr error
	doneCh := make(chan struct{})
	go func() {
		defer close(doneCh)
		w := mpi.NewWorld(ranks)
		w.RunEach(func(c *mpi.Comm) error {
			catalog := pts
			rctx := context.Background()
			if c.Rank() != 0 {
				catalog = nil
			} else {
				rctx = ctx
			}
			r, err := RunCtx(rctx, c, cfg, catalog)
			if c.Rank() == 0 {
				res, resErr = r, err
			}
			return err
		})
	}()
	select {
	case <-doneCh:
	case <-time.After(60 * time.Second):
		t.Fatal("cancelled world never drained: worker leak")
	}
	return res, resErr
}

// A context cancelled before the render starts aborts immediately with a
// typed CancelledError, zero tiles stitched, and all workers drained.
func TestCancelBeforeStartFlat(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := runCancelled(t, 4, Config{Tiles: 8}, ctx)
	var ce *CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CancelledError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v does not unwrap to context.Canceled", err)
	}
	if ce.Done != 0 || ce.Total != 8 {
		t.Fatalf("progress = %d/%d, want 0/8", ce.Done, ce.Total)
	}
	if res == nil || !res.Incomplete {
		t.Fatal("cancelled result not flagged Incomplete")
	}
	if len(res.Lost) != 8 {
		t.Fatalf("lost %d tiles, want all 8", len(res.Lost))
	}
}

// A mid-flight cancellation during a 4-rank render drains every worker
// cleanly and reports partial progress.
func TestCancelMidFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	res, err := runCancelled(t, 4, Config{Tiles: 16}, ctx)
	if err == nil {
		// The render outran the cancel timer; nothing to assert beyond a
		// complete result (possible on a very fast machine, not a failure).
		if res == nil || res.Incomplete {
			t.Fatal("fast-path render returned incomplete result without error")
		}
		return
	}
	var ce *CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CancelledError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v does not unwrap to context.Canceled", err)
	}
	if res == nil || !res.Incomplete {
		t.Fatal("cancelled result not flagged Incomplete")
	}
	if ce.Done >= ce.Total {
		t.Fatalf("progress = %d/%d claims completion despite cancellation", ce.Done, ce.Total)
	}
}

// A deadline on the coordinator context surfaces as DeadlineExceeded
// through the same typed error, including when the coordinator is deep in
// its self-compute fallback (single-rank world: every tile self-computed).
func TestDeadlineSelfCompute(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	res, err := runCancelled(t, 1, Config{Tiles: 8}, ctx)
	if err == nil {
		t.Skip("render finished inside the deadline; nothing to assert")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	var ce *CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CancelledError", err)
	}
	if res == nil || !res.Incomplete {
		t.Fatal("deadline-cut result not flagged Incomplete")
	}
}
