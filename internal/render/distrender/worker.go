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
)

// work is every non-root rank's loop: restore rank 0's mesh from the setup,
// then drain the queued batches, march one tile and send it to rank 0, until
// shut down. A send mpi gives up on is left to the root's deadline
// re-dispatch — the march is bit-exact, so recomputing is safe.
func work(c *mpi.Comm, h hooks) error {
	var setup setupMsg
	if _, err := c.Recv(0, tagSetup, &setup); err != nil {
		if errors.Is(err, mpi.ErrRankFailed) {
			return nil // coordinator gone before setup; nothing to serve
		}
		return err
	}
	marcher, err := setup.restoreMarcher()
	if err != nil {
		return err
	}
	me := c.Rank()
	var todo []int
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
				k := todo[0]
				todo = todo[1:]
				if h.fault != nil && h.fault.ShouldCrash(me, fault.PointTile, marched) {
					return fault.Crashed(me, fault.PointTile, marched)
				}
				start := time.Now()
				r, err := marchTile(context.Background(), marcher, &setup, k, me)
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
		var b assignBatch
		if err := msg.Decode(&b); err != nil {
			continue // the root's deadline re-dispatch recovers the batch
		}
		if b.Shutdown {
			return nil
		}
		for _, k := range b.Tiles {
			if k >= 0 && k < len(setup.Tiles) { // indexes the tiling: checked off the wire
				todo = append(todo, k)
			}
		}
	}
}
