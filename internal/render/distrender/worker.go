// The worker side of the gather. Every worker's parent is rank 0: workers
// march their statically-batched tiles and stream each finished tile to the
// coordinator as a treeFrame, and the coordinator stream-stitches it into
// the output grid and acks it. No rank relays another rank's frames, so the
// coordinator ingests one frame per worker flush — in practice one per
// tile. DESIGN §9 records why that is cheap enough to need no tree.
//
// Recovery ladder:
//
//   - Liveness: every rank runs an epoch-aware tolerant receive
//     (mpi.RecvTolerant), so any membership change wakes it immediately; a
//     worker whose coordinator is gone returns.
//   - Per-tile acks and a retry timer: a worker keeps every marched tile
//     until the coordinator acks it and re-sends the unacked ones, so a lost
//     frame or a lost ack costs one re-send.
//   - Idempotent dedupe: the coordinator stitches first-wins; tile renders
//     are bit-exact, so whichever copy arrives first is correct.
//   - Straggler expiry: a rank that produces nothing for TileTimeout has
//     the head of its outstanding share stolen and re-dispatched to the
//     least-loaded live rank. A rank that dies has its whole share (marched
//     but unsent tiles included) re-dispatched.
//   - Fallback: with no live workers left the root marches the remainder
//     itself (unless NoCoordinatorCompute).
package distrender

import (
	"context"
	"errors"
	"time"

	"godtfe/internal/fault"
	"godtfe/internal/mpi"
	"godtfe/internal/render"
)

func clampDuration(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

// work is every non-root rank's loop: take the setup broadcast, march the
// assigned batches, stream every marched tile to rank 0, and keep re-sending
// until acked or shut down. A lost frame is retried on a timer; one that
// never gets through is recovered by the root's deadline re-dispatch — the
// march is bit-exact, so recomputing elsewhere is safe.
func work(c *mpi.Comm, cfg Config) error {
	var setup setupMsg
	if _, err := c.Recv(0, tagSetup, &setup); err != nil {
		if errors.Is(err, mpi.ErrRankFailed) {
			return nil // coordinator gone before setup; nothing to serve
		}
		return err
	}
	me := c.Rank()
	retry := clampDuration(cfg.tileTimeout()/4, 25*time.Millisecond, 2*time.Second)

	var marcher *render.Marcher
	var todo []int
	pending := make(map[int]tileResult) // tiles unacked by the root (grids held)
	sentAt := make(map[int]time.Time)   // last send per pending tile
	seen := make(map[int]bool)          // every tile marched here: a re-dispatch back to this rank is not marched twice
	epoch := c.FailureEpoch()
	marched, sent := 0, 0

	// flush streams pending tiles to the root: those never sent and those
	// whose last send has gone stale (lost frame or lost ack).
	flush := func() error {
		now := time.Now()
		var due []tileResult
		for k, r := range pending {
			if sentAt[k].IsZero() || now.Sub(sentAt[k]) >= retry {
				due = append(due, r)
			}
		}
		if len(due) == 0 {
			return nil
		}
		if cfg.Fault != nil && cfg.Fault.ShouldCrash(me, fault.PointRelay, sent) {
			return fault.Crashed(me, fault.PointRelay, sent)
		}
		if err := c.Send(0, tagFrame, treeFrame{Tiles: due}); err != nil {
			if errors.Is(err, mpi.ErrMessageLost) {
				return nil // retry timer re-sends
			}
			return err
		}
		sent++
		for _, r := range due {
			sentAt[r.Tile] = now
		}
		return nil
	}

	for {
		var timeout time.Duration
		switch {
		case len(todo) > 0:
			timeout = 0 // drain queued messages, then march
		case len(pending) > 0:
			timeout = retry
		default:
			timeout = -1 // idle: pure block, zero CPU
		}
		msg, ep, err := c.RecvTolerant([]int{tagBatch, tagAck}, epoch, timeout)
		if err != nil {
			switch {
			case errors.Is(err, mpi.ErrWorldChanged):
				epoch = ep
				if !c.Alive(0) {
					return nil // coordinator gone; render is over
				}
			case errors.Is(err, mpi.ErrTimeout):
				if len(todo) > 0 {
					k := todo[0]
					todo = todo[1:]
					if !seen[k] {
						if cfg.Fault != nil && cfg.Fault.ShouldCrash(me, fault.PointTile, marched) {
							return fault.Crashed(me, fault.PointTile, marched)
						}
						if marcher == nil {
							m, err := buildMarcher(setup.Particles)
							if err != nil {
								return err
							}
							marcher = m
						}
						start := time.Now()
						r, err := marchTile(context.Background(), marcher, &setup, k, me)
						if err != nil {
							return err
						}
						if cfg.Fault != nil {
							cfg.Fault.StraggleSleep(me, time.Since(start))
						}
						marched++
						seen[k] = true
						pending[k] = r
					}
				}
				if err := flush(); err != nil {
					return err
				}
			default:
				return err
			}
			continue
		}
		epoch = ep
		switch msg.Tag {
		case tagBatch:
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
		case tagAck:
			var a frameAck
			if err := msg.Decode(&a); err != nil {
				continue
			}
			for _, k := range a.Tiles {
				delete(pending, k)
				delete(sentAt, k)
			}
		}
	}
}
