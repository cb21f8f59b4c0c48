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
//   - Fallback: with no live workers left the root marches the remainder
//     itself (unless the noCoordinatorCompute test hook forbids it).
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
// dropped with the batch.
type batch struct {
	tiles []int
	slab  *render.Slab
	m     *render.Marcher
	err   error // the slab builds no Marcher: every tile fails with this
}

// march marches tile k of the batch. A slab that is no piece of a mesh
// fails each of its tiles, never the rank.
func (b *batch) march(setup *setupMsg, k, me int) (tileResult, error) {
	if b.m == nil && b.err == nil {
		b.m, b.err = render.NewSlabMarcher(b.slab)
		b.slab = nil
	}
	if b.err != nil {
		return tileResult{Tile: k, Rank: me, Err: b.err.Error()}, nil
	}
	return marchTile(context.Background(), b.m, setup, k, me)
}

// work is every non-root rank's loop: take the setup, then drain the
// queued batches, march one tile against its batch's slab and send it to
// rank 0, until shut down. A send mpi gives up on is left to the root's
// deadline re-dispatch — the march is bit-exact, so recomputing is safe.
func work(c *mpi.Comm, h hooks) error {
	var setup setupMsg
	if _, err := c.Recv(0, tagSetup, &setup); err != nil {
		if errors.Is(err, mpi.ErrRankFailed) {
			return nil // coordinator gone before setup; nothing to serve
		}
		return err
	}
	me := c.Rank()
	var todo []*batch
	epoch := c.FailureEpoch()
	marched := 0
	for {
		timeout := time.Duration(-1) // idle: pure block, zero CPU
		if len(todo) > 0 {
			timeout = 0 // drain queued batches, then march
		}
		msg, ep, err := c.RecvTolerant(context.Background(), tagBatch, epoch, timeout)
		if err != nil {
			switch {
			case errors.Is(err, mpi.ErrWorldChanged):
				epoch = ep
				if !c.Alive(0) {
					return nil // coordinator gone; render is over
				}
			case errors.Is(err, mpi.ErrTimeout):
				b := todo[0]
				k := b.tiles[0]
				if b.tiles = b.tiles[1:]; len(b.tiles) == 0 {
					todo = todo[1:]
				}
				if h.fault != nil && h.fault.ShouldCrash(me, fault.PointTile, marched) {
					return fault.Crashed(me, fault.PointTile, marched)
				}
				start := time.Now()
				r, err := b.march(&setup, k, me)
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
		b := &batch{slab: a.Slab}
		for _, k := range a.Tiles {
			if k >= 0 && k < len(setup.Tiles) { // indexes the tiling: checked off the wire
				b.tiles = append(b.tiles, k)
			}
		}
		if len(b.tiles) > 0 {
			todo = append(todo, b)
		}
	}
}
