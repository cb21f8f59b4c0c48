// The worker side of the gather. Rank r's parent is (r-1)/fanout; rank 0
// is the root. Workers march their statically-batched tiles and stream each
// finished tile toward the root as a treeFrame; interior ranks ingest child
// frames, dedupe first-wins, and forward the child tiles upward in the same
// frame as their own. The root stream-stitches frames straight into the
// output grid, so its protocol cost is per frame — O(tiles) in a star
// (fanout >= ranks, every rank a leaf under 0), O(fanout x flushes) once
// interior ranks coalesce.
//
// Recovery ladder:
//
//   - Liveness per tree edge: every rank runs an epoch-aware tolerant
//     receive (mpi.RecvTolerant), so any membership change wakes it
//     immediately.
//   - Re-parenting: when a rank's parent dies, it re-attaches to its
//     nearest live ancestor (walking parent pointers toward the root,
//     which never dies) and re-sends every unacknowledged frame. With all
//     interior ranks dead this degrades to exactly the star.
//   - Idempotent dedupe: every level keeps a seen-set and drops
//     repeated tiles first-wins; tile renders are bit-exact, so whichever
//     copy survives is correct.
//   - Acks are hop-local: a parent acks the tiles it ingested so the child
//     stops re-sending to it. They are not end-to-end receipts — if an
//     interior rank dies after acking but before forwarding, the tiles die
//     with it, and the root's per-rank deadline re-dispatches them to a
//     surviving rank (recomputing is safe, again because renders are
//     bit-exact).
//   - Straggler expiry: a rank that produces nothing for TileTimeout has
//     the head of its outstanding share stolen and re-dispatched to the
//     least-loaded live rank.
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

// treeParent returns rank r's parent in a k-ary tree rooted at 0.
func treeParent(r, fanout int) int {
	if r <= 0 {
		return 0
	}
	return (r - 1) / fanout
}

// liveParent returns r's nearest live ancestor (0 if every interior
// ancestor is dead — the root is always reachable).
func liveParent(c *mpi.Comm, r, fanout int) int {
	p := treeParent(r, fanout)
	for p != 0 && !c.Alive(p) {
		p = treeParent(p, fanout)
	}
	return p
}

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
// assigned batches, ingest and relay child frames, stream everything to the
// current live parent, and keep re-sending until acked or shut down. A lost
// frame is retried on a timer; one that never gets through is recovered by
// the root's deadline re-dispatch — the march is bit-exact, so recomputing
// elsewhere is safe.
func work(c *mpi.Comm, cfg Config) error {
	var setup setupMsg
	if _, err := c.Recv(0, tagSetup, &setup); err != nil {
		if errors.Is(err, mpi.ErrRankFailed) {
			return nil // coordinator gone before setup; nothing to serve
		}
		return err
	}
	me := c.Rank()
	fanout := setup.Fanout
	retry := clampDuration(cfg.tileTimeout()/4, 25*time.Millisecond, 2*time.Second)

	var marcher *render.Marcher
	var todo []int
	pending := make(map[int]tileResult) // tiles unacked by the parent (grids held)
	sentAt := make(map[int]time.Time)   // last upward send per pending tile
	seen := make(map[int]bool)          // every tile ever ingested here (first-wins)
	parent := liveParent(c, me, fanout)
	epoch := c.FailureEpoch()
	marched, relayed := 0, 0

	// flush streams pending tiles to the parent: those never sent, those
	// whose last send has gone stale (lost frame or lost ack), and — when
	// force is set (re-parenting) — everything.
	flush := func(force bool) error {
		now := time.Now()
		var due []tileResult
		for k, r := range pending {
			if force || sentAt[k].IsZero() || now.Sub(sentAt[k]) >= retry {
				due = append(due, r)
			}
		}
		if len(due) == 0 {
			return nil
		}
		if cfg.Fault != nil && cfg.Fault.ShouldCrash(me, fault.PointRelay, relayed) {
			return fault.Crashed(me, fault.PointRelay, relayed)
		}
		if err := c.Send(parent, tagFrame, treeFrame{Tiles: due}); err != nil {
			if errors.Is(err, mpi.ErrMessageLost) {
				return nil // retry timer re-sends
			}
			return err
		}
		relayed++
		for _, r := range due {
			sentAt[r.Tile] = now
		}
		return nil
	}

	ingest := func(r tileResult) {
		if seen[r.Tile] {
			return
		}
		seen[r.Tile] = true
		pending[r.Tile] = r
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
		msg, ep, err := c.RecvTolerant([]int{tagBatch, tagFrame, tagAck}, epoch, timeout)
		if err != nil {
			switch {
			case errors.Is(err, mpi.ErrWorldChanged):
				epoch = ep
				if !c.Alive(0) {
					return nil // coordinator gone; render is over
				}
				if np := liveParent(c, me, fanout); np != parent {
					// Orphaned subtree: re-attach to the nearest live
					// ancestor and re-send everything unacknowledged.
					parent = np
					if err := flush(true); err != nil {
						return err
					}
				}
			case errors.Is(err, mpi.ErrTimeout):
				if len(todo) > 0 {
					k := todo[0]
					todo = todo[1:]
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
					ingest(r)
				}
				if err := flush(false); err != nil {
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
		case tagFrame:
			var f treeFrame
			if err := msg.Decode(&f); err != nil {
				continue // sender re-sends; persistent corruption falls to the root deadline
			}
			ack := frameAck{Tiles: make([]int, 0, len(f.Tiles))}
			for _, r := range f.Tiles {
				ack.Tiles = append(ack.Tiles, r.Tile)
				if setup.wellFormed(r) { // malformed: don't ingest; root deadline recovers
					ingest(r)
				}
			}
			_ = c.Send(msg.Src, tagAck, ack)
			if err := flush(false); err != nil {
				return err
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
