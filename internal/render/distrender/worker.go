// The worker side of the gather. Every worker's parent is rank 0: workers
// march their statically-batched tiles and send each finished tile to the
// coordinator once, as one tileResult, and the coordinator stream-stitches
// it into the output grid. No rank relays another rank's results, so the
// coordinator ingests one message per tile. DESIGN §9 records why that is
// cheap enough to need no tree.
//
// Recovery ladder:
//
//   - Liveness: every rank runs an epoch-aware tolerant receive
//     (mpi.RecvTolerant), so any membership change wakes it immediately; a
//     worker whose coordinator is gone returns.
//   - Idempotent dedupe: the coordinator stitches first-wins; tile renders
//     are bit-exact, so whichever copy arrives first is correct.
//   - Deadline re-dispatch, the one rule for a tile that never arrives: a
//     rank that produces nothing for the progress deadline (30 s) has the
//     head of its outstanding share stolen and re-dispatched to the
//     least-loaded live rank — a straggler, a malformed result and a send
//     lost past mpi's retries alike. A rank that dies has its whole share
//     (marched but unsent tiles included) re-dispatched. A tile handed back
//     to the rank that marched it is marched again.
//   - Fallback: with no live workers left and no result waiting, the root
//     cuts one slab for the tiles still missing and marches them as a
//     worker marches a batch (unless the noCoordinatorCompute test hook
//     forbids it).
package distrender

import (
	"context"
	"errors"
	"time"

	"godtfe/internal/fault"
	"godtfe/internal/mpi"
	"godtfe/internal/render"
)

// batch is one assignment as a worker holds it: the tiles still to march
// and the slab they cross, built into a Marcher at the first march and
// dropped with the batch. The coordinator's self-compute fallback marches
// its batch with the same code.
type batch struct {
	assignBatch
	m   *render.Marcher
	err error // the slab builds no Marcher: every tile fails with this
}

// march renders tile t of the batch under ctx (the coordinator's
// self-compute passes its caller's context; workers pass Background and
// rely on the shutdown batch instead). A context error is the rank-level
// error — the caller cancelling, not the tile failing. Any other error is
// the tile's own (Err), never the rank's: a slab that is no piece of a
// mesh, a span outside the spec, a span outside the slab.
func (b *batch) march(ctx context.Context, t batchTile, me int) (tileResult, error) {
	if b.m == nil && b.err == nil {
		b.m, b.err = render.NewSlabMarcher(b.Slab)
		b.Slab = nil
	}
	res := tileResult{Tile: t.K, Rank: me}
	if b.err != nil {
		res.Err = b.err.Error()
		return res, nil
	}
	g, stats, err := b.m.RenderTileCtx(ctx, b.Spec, t.Span, b.Workers)
	if err != nil {
		if ctx.Err() != nil {
			return res, err
		}
		res.Err = err.Error()
		return res, nil
	}
	res.Grid, res.Stats = g, stats
	return res, nil
}

// work is every non-root rank's loop: drain the queued batches, march one
// tile against its batch's slab and send it to rank 0, until shut down or
// the coordinator is gone. A send mpi gives up on is left to the root's
// deadline re-dispatch — the march is bit-exact, so recomputing is safe.
func work(c *mpi.Comm, h hooks) error {
	me := c.Rank()
	var todo []*batch
	epoch := c.FailureEpoch()
	marched := 0
	// The epoch is read first: a coordinator that exits after this check
	// moves it and wakes the receive.
	for c.Alive(0) {
		timeout := time.Duration(-1) // idle: pure block, zero CPU
		if len(todo) > 0 {
			timeout = 0 // drain queued batches, then march
		}
		msg, ep, err := c.RecvTolerant(context.Background(), tagBatch, epoch, timeout)
		if err != nil {
			switch {
			case errors.Is(err, mpi.ErrWorldChanged):
				epoch = ep
			case errors.Is(err, mpi.ErrTimeout):
				b := todo[0]
				t := b.Tiles[0]
				if b.Tiles = b.Tiles[1:]; len(b.Tiles) == 0 {
					todo = todo[1:]
				}
				if h.fault != nil && h.fault.ShouldCrash(me, fault.PointTile, marched) {
					return fault.Crashed(me, fault.PointTile, marched)
				}
				start := time.Now()
				r, err := b.march(context.Background(), t, me)
				if err != nil {
					return err
				}
				if h.fault != nil {
					h.fault.StraggleSleep(me, time.Since(start))
					if h.fault.ShouldCrash(me, fault.PointRelay, marched) {
						return fault.Crashed(me, fault.PointRelay, marched)
					}
				}
				marched++
				if err := c.Send(0, tagResult, r); err != nil && !errors.Is(err, mpi.ErrMessageLost) {
					return err
				}
			default:
				return err
			}
			continue
		}
		epoch = ep
		var a assignBatch
		if err := msg.Decode(&a); err != nil || !a.Shutdown && a.Slab == nil {
			continue // the root's deadline re-dispatch recovers the batch
		}
		if a.Shutdown {
			return nil
		}
		if len(a.Tiles) > 0 {
			todo = append(todo, &batch{assignBatch: a})
		}
	}
	return nil // coordinator gone; render is over
}
