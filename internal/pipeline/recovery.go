// Fault-tolerant Phase 4 executor.
//
// The a-priori work-sharing schedule of the paper has no runtime recourse:
// one dead or mispredicted rank stalls the whole reconstruction (the
// paper's own Fig 13 failure mode). This executor replaces it with a
// runtime protocol:
//
//   - Buddy checkpoints: before executing, each rank ships its halo
//     particle set to the next rank in a ring (its "buddy"), and every
//     rank's ordered work list is allgathered. The buddy can therefore
//     recompute any of its ward's items bit-exactly (same particle slice,
//     same kd-tree, same kernel).
//   - Heartbeats: after every completed item, a rank reports
//     (done, predicted-so-far, actual-so-far) to the coordinator (rank 0).
//   - Straggler detection: a rank whose measured item times exceed
//     StragglerThreshold × its model predictions (the Fig 13 misprediction
//     signal) is sent a yield order; it stops after the current item and
//     acknowledges with its exact progress, so no item is executed twice.
//   - Re-dispatch: the unfinished items of a yielded rank — or the entire
//     list of a dead one, whose partial results died with it — are
//     re-dispatched to its checkpoint buddy, which recomputes them and
//     reports on its ward's behalf.
//   - Graceful degradation: when loss is unrecoverable (a rank and its
//     buddy both die, or a peer goes silent past DeadTimeout), the
//     coordinator declares the affected fields lost, records them in its
//     Result's per-field status, and terminates the phase instead of
//     hanging.
package pipeline

import (
	"errors"
	"fmt"
	"time"

	"godtfe/internal/fault"
	"godtfe/internal/geom"
	"godtfe/internal/kdtree"
	"godtfe/internal/mpi"
)

// Tags of the recovery protocol (user tag space, distinct from tagWork).
const (
	tagCkptHalo  = 101
	tagHeartbeat = 102
	tagControl   = 103
)

// heartbeat is a rank's progress report to the coordinator. Progress
// counters are absolute so reports are idempotent and order-tolerant.
type heartbeat struct {
	Rank int
	// Ward is -1 for a rank's own progress; otherwise the report covers
	// recovery work executed on behalf of rank Ward.
	Ward int
	// Done is the number of pending items completed (own reports), or
	// items recovered so far (ward reports).
	Done       int
	PredDone   float64 // model-predicted seconds for the done items
	ActualDone float64 // measured seconds (includes injected slowdowns)
	Finished   bool
	// NoCkpt reports that a re-dispatch could not be honored because the
	// ward's checkpoint never arrived.
	NoCkpt bool
}

// control kinds sent by the coordinator.
const (
	ctlYield      = iota // stop after the current item and acknowledge
	ctlRedispatch        // recompute ward's items [From:] from checkpoint
	ctlDone              // phase 4 is over
)

type control struct {
	Kind int
	Ward int
	// From is the pending-list index recovery starts at; 0 additionally
	// re-executes the ward's Phase 2 sample item (full re-execution of a
	// dead rank, whose sample field died with it).
	From int
}

// ckptMeta is each rank's work list, allgathered so the coordinator can
// account for (and, on loss, name) every field, and so buddies know what
// to recompute.
type ckptMeta struct {
	Centers   []geom.Vec3 // pending items, in execution order
	Sample    geom.Vec3   // the Phase 2 test item
	HasSample bool
}

// runRecovery executes Phase 4 under the fault-tolerant protocol.
// pending indexes local; pred is the per-item model prediction; samplePick
// is the Phase 2 test item's index into local (-1 if none).
func (rt *runtime) runRecovery(local []geom.Vec3, pending []int, pred []float64, samplePick int) error {
	c := rt.c
	rank, n := c.Rank(), c.Size()

	meta := ckptMeta{Centers: make([]geom.Vec3, len(pending))}
	for k, pi := range pending {
		meta.Centers[k] = local[pi]
	}
	if samplePick >= 0 {
		meta.Sample = local[samplePick]
		meta.HasSample = true
	}
	allMeta, err := mpi.Allgather(c, meta)
	if err != nil {
		return err
	}

	// Ring checkpoint: halo to buddy, ward's halo from behind. Sends are
	// buffered, so the ring cannot deadlock.
	buddy, ward := (rank+1)%n, (rank+n-1)%n
	tw := time.Now()
	if err := c.Send(buddy, tagCkptHalo, rt.halo); err != nil {
		return err
	}
	var wardHalo []geom.Vec3
	if _, err := c.Recv(ward, tagCkptHalo, &wardHalo); err != nil {
		if !errors.Is(err, mpi.ErrRankFailed) {
			return err
		}
		wardHalo = nil // ward died pre-checkpoint: its work is beyond us
	}
	rt.res.Phases.WorkShare += time.Since(tw).Seconds()

	if rank == 0 {
		return rt.recoveryCoordinator(local, pending, pred, allMeta, ward, wardHalo)
	}
	return rt.recoveryWorker(local, pending, pred, allMeta, ward, wardHalo)
}

// recoverWard recomputes the ward's items [from:] (plus its Phase 2
// sample when from == 0) from the checkpointed halo, reporting progress so
// the coordinator's stall detector sees recovery advancing.
func (rt *runtime) recoverWard(wardRank, from int, meta ckptMeta, wardHalo []geom.Vec3, report func(hb heartbeat)) {
	hb := heartbeat{Rank: rt.c.Rank(), Ward: wardRank}
	if wardHalo == nil {
		hb.Finished, hb.NoCkpt = true, true
		report(hb)
		return
	}
	tree := kdtree.New(wardHalo)
	rt.owner = wardRank
	defer func() { rt.owner = rt.c.Rank() }()
	if from == 0 && meta.HasSample {
		rt.computeItemWith(meta.Sample, tree, wardHalo, nil, execRecovered)
		hb.Done++
		report(hb)
	}
	for _, ctr := range meta.Centers[from:] {
		rt.computeItemWith(ctr, tree, wardHalo, nil, execRecovered)
		hb.Done++
		report(hb)
	}
	hb.Finished = true
	report(hb)
}

// recoveryWorker is every non-coordinator rank's Phase 4 loop: compute,
// heartbeat, poll for control orders, then wait for re-dispatch or Done.
func (rt *runtime) recoveryWorker(local []geom.Vec3, pending []int, pred []float64, allMeta []ckptMeta, ward int, wardHalo []geom.Vec3) error {
	c, cfg := rt.c, rt.cfg
	rank := c.Rank()
	hb := heartbeat{Rank: rank, Ward: -1}
	sendHB := func() {
		// Heartbeats are best-effort: a lost one only delays detection.
		_ = c.Send(0, tagHeartbeat, hb)
	}
	var queued []control
	coordinatorGone := func(err error) error {
		rt.res.Incomplete = true
		rt.res.Failures = append(rt.res.Failures,
			fmt.Sprintf("recovery: coordinator unreachable: %v", err))
		return nil // keep the partial result
	}

	// sawDone: Done is the coordinator's last word, and it may exit the
	// moment it is sent. Once it is in hand there is nothing left to poll
	// for — a poll would find rank 0 gone and misreport a clean end of
	// phase as an unreachable coordinator.
	yielded, sawDone := false, false
	for k, pi := range pending {
		if err := crashCheck(cfg, rank, fault.PointPhase4, k); err != nil {
			return err
		}
		t0 := time.Now()
		rt.computeTimedItem(local[pi], &pred[pi], execLocal)
		hb.Done = k + 1
		hb.PredDone += pred[pi]
		hb.ActualDone += time.Since(t0).Seconds()
		hb.Finished = hb.Done == len(pending)
		sendHB()
		// Poll control orders between items.
		for !yielded && !sawDone {
			var ctl control
			_, ok, err := c.TryRecv(0, tagControl, &ctl)
			if err != nil {
				return coordinatorGone(err)
			}
			if !ok {
				break
			}
			switch ctl.Kind {
			case ctlYield:
				if !hb.Finished {
					yielded = true
					hb.Finished = true
					sendHB() // acknowledge with exact progress
				}
			case ctlRedispatch, ctlDone:
				queued = append(queued, ctl)
				sawDone = ctl.Kind == ctlDone
			}
		}
		if yielded {
			break
		}
	}
	if len(pending) == 0 {
		hb.Finished = true
		sendHB()
	}

	// Wait for orders: re-dispatched recovery work, or Done.
	waited := time.Duration(0)
	for {
		var ctl control
		if len(queued) > 0 {
			ctl, queued = queued[0], queued[1:]
		} else {
			_, err := c.RecvTimeout(0, tagControl, &ctl, cfg.DeadTimeout)
			if err != nil {
				if errors.Is(err, mpi.ErrTimeout) {
					waited += cfg.DeadTimeout
					if waited < 10*cfg.DeadTimeout {
						continue
					}
				}
				return coordinatorGone(err)
			}
			waited = 0
		}
		switch ctl.Kind {
		case ctlDone:
			return nil
		case ctlYield:
			// Raced with our completion; the coordinator has our
			// finished heartbeat and needs no acknowledgment.
		case ctlRedispatch:
			if ctl.Ward == rank {
				// Our own remaining items handed back: our checkpoint
				// holder died after we yielded. Compute them from our own
				// halo (still execLocal — we are the owner).
				self := heartbeat{Rank: rank, Ward: rank}
				for _, pi := range pending[ctl.From:] {
					rt.computeTimedItem(local[pi], &pred[pi], execLocal)
					self.Done++
					_ = c.Send(0, tagHeartbeat, self)
				}
				self.Finished = true
				_ = c.Send(0, tagHeartbeat, self)
				continue
			}
			rt.recoverWard(ctl.Ward, ctl.From, allMeta[ctl.Ward], wardHalo, func(h heartbeat) {
				_ = c.Send(0, tagHeartbeat, h)
			})
		}
	}
}

// coordState tracks one rank's Phase 4 fate at the coordinator.
type coordState struct {
	total      int // pending items owned
	done       int
	predDone   float64
	actualDone float64
	finished   bool // own work concluded (completed or yielded)
	covered    bool // all its fields are accounted for in some Result
	lost       bool // fields declared unrecoverable
	yieldSent  bool
	dead       bool
	assignee   int // rank recovering it (-1 none)
}

// recoveryCoordinator is rank 0's Phase 4: execute its own items while
// monitoring heartbeats, detect stragglers and deaths, re-dispatch, and
// terminate the phase.
func (rt *runtime) recoveryCoordinator(local []geom.Vec3, pending []int, pred []float64, allMeta []ckptMeta, ward int, wardHalo []geom.Vec3) error {
	c, cfg := rt.c, rt.cfg
	n := c.Size()
	st := make([]coordState, n)
	for r := range st {
		st[r] = coordState{total: len(allMeta[r].Centers), assignee: -1}
	}
	lastProgress := time.Now()

	// holderOf returns the rank holding r's checkpoint (fixed ring).
	holderOf := func(r int) int { return (r + 1) % n }

	selfRecover := func(wardRank, from int) {
		rt.recoverWard(wardRank, from, allMeta[wardRank], wardHalo, func(hb heartbeat) {})
		if wardHalo == nil && wardRank != 0 {
			st[wardRank].lost = true
		} else {
			st[wardRank].covered = true
		}
	}

	redispatch := func(r, from int) {
		h := holderOf(r)
		if st[h].dead {
			// The checkpoint lives only on the ring buddy; a dead buddy
			// means the ward's fields are unrecoverable.
			st[r].lost = true
			return
		}
		if h == 0 {
			st[r].assignee = 0
			selfRecover(r, from)
			return
		}
		if err := c.Send(h, tagControl, control{Kind: ctlRedispatch, Ward: r, From: from}); err != nil {
			st[r].lost = true
			return
		}
		st[r].assignee = h
	}

	process := func(hb heartbeat) {
		lastProgress = time.Now()
		if hb.Ward >= 0 {
			if hb.Finished {
				if hb.NoCkpt {
					st[hb.Ward].lost = true
				} else {
					st[hb.Ward].covered = true
				}
			}
			return
		}
		s := &st[hb.Rank]
		if hb.Done > s.done {
			s.done = hb.Done
			s.predDone = hb.PredDone
			s.actualDone = hb.ActualDone
		}
		if hb.Finished && !s.finished {
			s.finished = true
			if s.done >= s.total {
				s.covered = true
			} else if st[holderOf(hb.Rank)].dead && !s.dead {
				// The checkpoint holder died after the yield was sent, but
				// the yielded rank itself is alive: hand its remaining
				// items back to it rather than declaring them lost.
				if err := c.Send(hb.Rank, tagControl, control{Kind: ctlRedispatch, Ward: hb.Rank, From: s.done}); err != nil {
					st[hb.Rank].lost = true
				} else {
					s.assignee = hb.Rank
				}
			} else {
				// Yield acknowledgment: the rank keeps [0:done); its
				// buddy recomputes the rest.
				redispatch(hb.Rank, s.done)
			}
		}
	}

	supervise := func() {
		for _, r := range c.FailedRanks() {
			if r == 0 || st[r].dead {
				continue
			}
			st[r].dead = true
			st[r].covered = false
			// Whatever r was recovering is gone with it. A dead ward's
			// fields are lost (its checkpoint lived only on r), but a ward
			// that merely yielded is still alive: hand its remaining items
			// back to it.
			for w := range st {
				if st[w].assignee != r || st[w].covered || w == r {
					continue
				}
				if !st[w].dead {
					if err := c.Send(w, tagControl, control{Kind: ctlRedispatch, Ward: w, From: st[w].done}); err == nil {
						st[w].assignee = w
						continue
					}
				}
				st[w].lost = true
			}
			// r's own Result (including fields it already computed) died
			// with it: full re-execution from its checkpoint.
			if !st[r].lost {
				redispatch(r, 0)
			}
		}
		for r := 1; r < n; r++ {
			s := &st[r]
			if s.dead || s.finished || s.yieldSent || s.done == 0 || s.predDone <= 0 {
				continue
			}
			if st[holderOf(r)].dead {
				// No checkpoint holder to take over: yielding could only
				// lose the fields, so let the slow rank finish.
				continue
			}
			if s.actualDone > cfg.StragglerThreshold*s.predDone {
				if err := c.Send(r, tagControl, control{Kind: ctlYield}); err == nil {
					s.yieldSent = true
				}
			}
		}
	}

	drain := func() error {
		for {
			var hb heartbeat
			_, ok, err := c.TryRecv(mpi.AnySource, tagHeartbeat, &hb)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			process(hb)
		}
	}

	// Own items, supervising between them.
	for k, pi := range pending {
		if err := crashCheck(cfg, 0, fault.PointPhase4, k); err != nil {
			return err
		}
		rt.computeTimedItem(local[pi], &pred[pi], execLocal)
		if err := drain(); err != nil {
			return err
		}
		supervise()
	}
	st[0].finished, st[0].covered = true, true

	allSettled := func() bool {
		for r := range st {
			if !st[r].covered && !st[r].lost {
				return false
			}
		}
		return true
	}

	// Monitor until every rank's fields are accounted for.
	for !allSettled() {
		var hb heartbeat
		_, err := c.RecvTimeout(mpi.AnySource, tagHeartbeat, &hb, cfg.HeartbeatEvery)
		if err == nil {
			process(hb)
		} else if !errors.Is(err, mpi.ErrTimeout) {
			return err
		}
		supervise()
		if time.Since(lastProgress) > cfg.DeadTimeout {
			// A peer (or its recovery) went silent: give its fields up
			// rather than hang.
			for r := 1; r < n; r++ {
				if !st[r].covered && !st[r].lost {
					st[r].lost = true
					rt.res.Failures = append(rt.res.Failures,
						fmt.Sprintf("recovery: rank %d silent for %v, declaring its fields lost", r, cfg.DeadTimeout))
				}
			}
			break
		}
	}

	// Terminate the phase on every surviving rank.
	for r := 1; r < n; r++ {
		if !st[r].dead {
			_ = c.Send(r, tagControl, control{Kind: ctlDone})
		}
	}

	// Account losses in the coordinator's Result.
	for r := 1; r < n; r++ {
		if !st[r].lost {
			continue
		}
		rt.res.Incomplete = true
		rt.res.Failures = append(rt.res.Failures,
			fmt.Sprintf("recovery: rank %d's %d fields are unrecoverable", r, st[r].total+boolInt(allMeta[r].HasSample)))
		if allMeta[r].HasSample {
			rt.res.Status = append(rt.res.Status, FieldStatus{Center: allMeta[r].Sample, State: FieldLost, Owner: r})
		}
		for _, ctr := range allMeta[r].Centers {
			rt.res.Status = append(rt.res.Status, FieldStatus{Center: ctr, State: FieldLost, Owner: r})
		}
	}
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
