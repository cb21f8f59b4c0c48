package fieldserve

import (
	"context"
	"slices"
	"time"

	"godtfe/internal/grid"
	"godtfe/internal/render"
)

// This file is the render planner + batcher: the worker loop that claims
// queued requests as batch leaders, gathers same-family followers,
// computes the union cover plan, executes one shared march (through the
// column cache), and slices every member's grid out of the result.
// Bit-exactness rests on the global-column-index invariant (DESIGN.md
// §13): cell (i, j) is a pure function of the family key and (i, j), so a
// slice of the union grid is byte-identical to a direct render of the
// member's spec.

// famKey maps a request key to its batching-group key: the coalescing
// family (catalog + spec with extents zeroed).
func famKey(k Key) Key {
	return Key{Catalog: k.Catalog, Spec: render.FamilyOf(k.Spec)}
}

// worker is one serving goroutine: claim a leader, gather its batch,
// execute, release the family lock.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		leader, fk := s.nextLeader()
		if leader == nil {
			return
		}
		members := s.collectBatch(leader, fk)
		s.active.Add(1)
		s.executeBatch(members)
		s.active.Add(-1)
		s.qmu.Lock()
		delete(s.inflight, fk)
		s.qcond.Broadcast() // wake workers parked on this family's lock
		s.qmu.Unlock()
	}
}

// nextLeader blocks until a queued task whose family is not already
// executing is available (or the service is closing) and claims it,
// marking the family in flight *before* any batch-window wait so a second
// worker can never start a duplicate march of the same family.
func (s *Service) nextLeader() (*task, Key) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	for {
		if s.quitting {
			return nil, Key{}
		}
		for i, t := range s.q {
			fk := famKey(t.key)
			if s.inflight[fk] {
				continue
			}
			s.q = append(s.q[:i], s.q[i+1:]...)
			s.inflight[fk] = true
			return t, fk
		}
		s.qcond.Wait()
	}
}

// collectBatch optionally waits BatchWindow for followers, then removes
// every queued task in the leader's family (up to MaxBatch members) from
// the queue. Later same-family arrivals stay queued behind the in-flight
// family lock and form the next batch — by then the column cache is warm,
// so they assemble instead of marching.
func (s *Service) collectBatch(leader *task, fk Key) []*task {
	members := []*task{leader}
	if w := s.opt.BatchWindow; w > 0 && s.opt.MaxBatch > 1 {
		timer := time.NewTimer(w)
		select {
		case <-timer.C:
		case <-s.quit:
			timer.Stop()
		}
	}
	s.qmu.Lock()
	for i := 0; i < len(s.q) && len(members) < s.opt.MaxBatch; {
		if famKey(s.q[i].key) == fk {
			members = append(members, s.q[i])
			s.q = append(s.q[:i], s.q[i+1:]...)
		} else {
			i++
		}
	}
	s.qmu.Unlock()
	return members
}

// batchContext returns a context that cancels only when EVERY member's
// context has died — the merged-cancellation rule that makes leader
// cancellation promote the surviving followers for free: the shared march
// keeps running as long as anyone still wants its result. If any member
// is un-cancellable the merge is too. The returned stop func must be
// deferred.
func batchContext(members []*task) (context.Context, func()) {
	for _, t := range members {
		if t.ctx.Done() == nil {
			return context.Background(), func() {}
		}
	}
	if len(members) == 1 {
		return members[0].ctx, func() {}
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	stop := make(chan struct{})
	go func() {
		for _, t := range members {
			select {
			case <-t.ctx.Done():
			case <-stop:
				return
			}
		}
		// All members are dead; any member's cause will do.
		cancel(context.Cause(members[0].ctx))
	}()
	return ctx, func() {
		close(stop)
		cancel(context.Canceled) // release the merged context's resources
	}
}

// executeBatch serves one batch: union cover plan, one shared march
// through the column cache, then a per-member slice. The family lock the
// worker holds is the single-flight: no other batch of this family runs
// until this one returns. Every member's done channel is resolved exactly
// once.
func (s *Service) executeBatch(members []*task) {
	n := uint64(len(members))
	s.batches.Add(1)
	s.batchedReqs.Add(n)
	if n > 1 {
		s.coalesced.Add(n - 1)
	}
	atomicMax(&s.maxBatch, n)

	mctx, stopMerge := batchContext(members)
	defer stopMerge()

	leader := members[0]
	mv, cat, err := s.viewFor(mctx, leader.key.Catalog)
	if err != nil {
		s.failBatch(members, err)
		return
	}

	specs := make([]render.Spec, len(members))
	for i, t := range members {
		specs[i] = t.key.Spec
	}
	union, err := render.UnionSpec(specs)
	if err != nil {
		// Unreachable: collectBatch only groups same-family keys.
		s.failBatch(members, err)
		return
	}

	poisonCol := s.opt.Fault != nil && slices.ContainsFunc(members, func(t *task) bool {
		return s.opt.Fault.ShouldPoisonCache(t.id)
	})

	start := time.Now()
	shared, err := s.buildUnion(mctx, mv, cat, Key{Catalog: leader.key.Catalog, Spec: union}, poisonCol)
	if err != nil {
		s.failBatch(members, err)
		return
	}
	s.observeBatch(time.Since(start), len(members))

	for i, t := range members {
		if t.ctx.Err() != nil {
			t.done <- taskResult{err: context.Cause(t.ctx)}
			continue
		}
		sliced, serr := render.SliceSub(shared, t.key.Spec)
		if serr != nil {
			t.done <- taskResult{err: serr}
			continue
		}
		t.done <- taskResult{resp: &Response{
			Grid:     sliced,
			Checksum: sliced.Checksum(),
			CacheHit: i > 0,
		}}
	}
}

// buildUnion produces the union grid for a batch: pull every column the
// family has cached, march only the cold runs, then publish the marched
// columns back to the column cache (with the cache disabled every column
// is cold and nothing is published). All column traffic is pinned to the
// batch's mesh view: gets require the view's epoch tag and puts carry it
// (guarded against publishing after a newer epoch landed), so the
// assembled grid is a pure function of one mesh epoch. The union grid
// itself is not stored anywhere: its columns are.
func (s *Service) buildUnion(ctx context.Context, mv *meshView, cat *catalog, key Key, poisonCol bool) (*grid.Grid2D, error) {
	s.unions.Add(1)
	spec := key.Spec

	// The epoch guard: the batch marches mv; if the catalog has moved to a
	// newer epoch by the time a column insert is attempted (evaluated under
	// the cache lock, so ordered against the update's sweep), the insert is
	// dropped — the members are still served the consistent old-epoch
	// grid, its columns just never become resident.
	insertOK := func() bool { return cat.epoch() == mv.epoch }
	fam := render.FamilyOf(spec)
	dst := spec.Grid()
	var runs []render.Tile
	coldStart := -1
	for i := 0; i < spec.Nx; i++ {
		if vals, ok := s.colcache.get(colKey{Catalog: key.Catalog, Family: fam, Col: i}, spec.Ny, mv.epoch); ok {
			dst.SetColumn(i, vals)
			if coldStart >= 0 {
				runs = append(runs, render.Tile{I0: coldStart, I1: i})
				coldStart = -1
			}
		} else if coldStart < 0 {
			coldStart = i
		}
	}
	if coldStart >= 0 {
		runs = append(runs, render.Tile{I0: coldStart, I1: spec.Nx})
	}

	if len(runs) > 0 {
		s.marches.Add(1)
		if _, err := mv.m.RenderRunsCtx(ctx, spec, runs, dst, s.opt.RenderWorkers, render.ScheduleDynamic); err != nil {
			return nil, err
		}
		for _, r := range runs {
			s.coldCols.Add(uint64(r.I1 - r.I0))
			for i := r.I0; i < r.I1; i++ {
				ck := colKey{Catalog: key.Catalog, Family: fam, Col: i}
				s.colcache.put(ck, dst.Column(i, nil), mv.epoch, insertOK)
				if poisonCol && i == r.I0 {
					// Fault injection: the one poison path. dst itself stays
					// pristine — Column handed put a private copy.
					s.colcache.rot(ck)
				}
			}
		}
	}
	return dst, nil
}

// failBatch resolves every member with the batch error, or with its own
// context's cause when the member itself is already dead.
func (s *Service) failBatch(members []*task, err error) {
	for _, t := range members {
		if t.ctx.Err() != nil {
			t.done <- taskResult{err: context.Cause(t.ctx)}
		} else {
			t.done <- taskResult{err: err}
		}
	}
}
