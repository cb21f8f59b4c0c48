package pipeline

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"godtfe/internal/fault"
	"godtfe/internal/geom"
	"godtfe/internal/kdtree"
	"godtfe/internal/mpi"
	"godtfe/internal/synth"
)

// rankOut captures one rank's Result AND error: chaos runs expect some
// ranks to fail, which mpi.Run-based harnesses would turn into a test
// abort.
type rankOut struct {
	res *Result
	err error
}

// runChaos executes the pipeline with the hooks h over a world with a fault
// plan installed on both the message layer and the pipeline's
// instrumentation points.
func runChaos(t *testing.T, ranks int, cfg Config, h hooks, plan *fault.Plan, pts, centers []geom.Vec3) []rankOut {
	t.Helper()
	w := mpi.NewWorld(ranks)
	if plan != nil {
		inj := fault.New(*plan)
		w.SetInjector(inj)
		h.fault = inj
	}
	return runWorld(w, ranks, cfg, h, pts, centers)
}

// runWorld runs the pipeline with the hooks h on every rank of w, with the
// particles dealt round-robin and every centre starting on rank 0.
func runWorld(w *mpi.World, ranks int, cfg Config, h hooks, pts, centers []geom.Vec3) []rankOut {
	outs := make([]rankOut, ranks)
	w.RunEach(func(c *mpi.Comm) error {
		var local []geom.Vec3
		for i := c.Rank(); i < len(pts); i += ranks {
			local = append(local, pts[i])
		}
		var ctrs []geom.Vec3
		if c.Rank() == 0 {
			ctrs = centers
		}
		res, err := run(c, cfg, local, ctrs, h)
		outs[c.Rank()] = rankOut{res, err}
		return err
	})
	return outs
}

// collectFields merges every surviving rank's rendered grids by center.
func collectFields(outs []rankOut) map[geom.Vec3][]float64 {
	fields := map[geom.Vec3][]float64{}
	for _, o := range outs {
		if o.res == nil {
			continue
		}
		for _, f := range o.res.Fields {
			fields[f.Center] = f.Grid.Data
		}
	}
	return fields
}

// chaosConfig is the recovery suites' run: a small recovery-mode world with
// a 100 ms dead timeout.
func chaosConfig() (Config, hooks) {
	return Config{
		Box: unitBox(), FieldLen: 0.15, GridN: 8,
		KeepFields: true, Recovery: true, Seed: 17,
	}, hooks{deadTimeout: 100 * time.Millisecond}
}

func TestRecoveryCrashBitExact(t *testing.T) {
	// The acceptance scenario: a rank dies mid-Phase 4; the run must still
	// complete EVERY field, and the recovered grids must match a
	// failure-free run bit for bit (the buddy recomputes from the exact
	// checkpointed particle set).
	const ranks = 4
	pts := synth.HaloSet(4000, unitBox(), synth.DefaultHaloSpec(), 41)
	centers := synth.Uniform(28, unitBox(), 42)
	cfg, h := chaosConfig()

	clean := runChaos(t, ranks, cfg, h, nil, pts, centers)
	for r, o := range clean {
		if o.err != nil {
			t.Fatalf("failure-free recovery run, rank %d: %v", r, o.err)
		}
	}
	want := collectFields(clean)

	crashed := runChaos(t, ranks, cfg, h, &fault.Plan{
		Crashes: []fault.Crash{{Rank: 2, Point: fault.PointPhase4, After: 1}},
	}, pts, centers)
	if crashed[2].err == nil || !errors.Is(crashed[2].err, fault.ErrInjectedCrash) {
		t.Fatalf("rank 2 should die of the injected crash, got: %v", crashed[2].err)
	}
	for _, r := range []int{0, 1, 3} {
		if crashed[r].err != nil {
			t.Fatalf("survivor rank %d: %v", r, crashed[r].err)
		}
		if crashed[r].res.Incomplete {
			t.Fatalf("survivor rank %d incomplete: %v", r, crashed[r].res.Failures)
		}
	}

	got := collectFields(crashed)
	if len(got) != len(want) {
		t.Fatalf("recovered run rendered %d fields, failure-free %d", len(got), len(want))
	}
	for ctr, w := range want {
		g, ok := got[ctr]
		if !ok {
			t.Fatalf("field at %v missing after recovery", ctr)
		}
		for i := range w {
			if g[i] != w[i] { // exact: recovery must be bitwise identical
				t.Fatalf("field at %v differs at cell %d: %v vs %v", ctr, i, g[i], w[i])
			}
		}
	}

	// The crashed rank's fields carry recovered status on the buddy. (A
	// survivor may additionally be yielded on model noise and recovered
	// too, so only require rank 2's recovery.)
	recovered := 0
	for _, o := range crashed {
		if o.res == nil {
			continue
		}
		for _, s := range o.res.Status {
			if s.State == FieldRecovered && s.Owner == 2 {
				recovered++
			}
		}
	}
	if recovered == 0 {
		t.Fatal("no fields of the crashed rank marked recovered")
	}
}

// delayCheckpoint holds rank 1's checkpoint to rank 0 in flight for 100ms,
// so rank 1 is already dead when rank 0 enters its Phase 4 loop.
type delayCheckpoint struct{ mpi.Injector }

func (d delayCheckpoint) SendVerdict(src, dst, tag, attempt, bytes int) mpi.SendVerdict {
	if src == 1 && dst == 0 && tag == tagCkptHalo {
		return mpi.SendVerdict{Delay: 100 * time.Millisecond}
	}
	return d.Injector.SendVerdict(src, dst, tag, attempt, bytes)
}

// TestRecoveryCrashBeforeCoordinatorStarts: in a 2-rank world no other
// worker's heartbeat will wake the coordinator, so a death that precedes
// its first wait must still be acted on. Rank 0 holds rank 1's checkpoint
// and recomputes every one of its fields, the Phase 2 sample included.
func TestRecoveryCrashBeforeCoordinatorStarts(t *testing.T) {
	const ranks = 2
	pts := synth.HaloSet(4000, unitBox(), synth.DefaultHaloSpec(), 41)
	centers := synth.Uniform(14, unitBox(), 42)
	cfg, h := chaosConfig()
	inj := fault.New(fault.Plan{
		Crashes: []fault.Crash{{Rank: 1, Point: fault.PointPhase4, After: 0}},
	})
	h.fault = inj
	w := mpi.NewWorld(ranks)
	w.SetInjector(delayCheckpoint{inj})
	outs := runWorld(w, ranks, cfg, h, pts, centers)

	if !errors.Is(outs[1].err, fault.ErrInjectedCrash) {
		t.Fatalf("rank 1 should die of the injected crash, got: %v", outs[1].err)
	}
	if outs[0].err != nil {
		t.Fatalf("rank 0: %v", outs[0].err)
	}
	res := outs[0].res
	if res.Incomplete {
		t.Fatalf("rank 0 incomplete: %v", res.Failures)
	}
	statuses := map[geom.Vec3][]FieldState{}
	for _, s := range res.Status {
		statuses[s.Center] = append(statuses[s.Center], s.State)
	}
	for _, ctr := range centers {
		got := statuses[ctr]
		if len(got) != 1 || got[0] == FieldLost {
			t.Errorf("centre %v: statuses %v, want one done or recovered", ctr, got)
		}
	}
}

// TestRecoveryCoordinatorExitsRightAfterDone forces the ordering that made
// the failure-free run above flake: rank 0 says Done and is gone before a
// worker's first control poll. Done in hand is a clean end of phase — every
// worker returns nil with a complete result, not "coordinator unreachable".
func TestRecoveryCoordinatorExitsRightAfterDone(t *testing.T) {
	const ranks = 3
	pts := synth.Uniform(300, unitBox(), 7)
	cfg, h := chaosConfig()
	results := make([]*Result, ranks)
	errs := mpi.NewWorld(ranks).RunEach(func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			for r := 1; r < ranks; r++ {
				if err := c.Send(r, tagControl, control{Kind: ctlDone}); err != nil {
					return err
				}
			}
			return nil
		}
		for c.Alive(0) {
			time.Sleep(100 * time.Microsecond)
		}
		rt := &runtime{c: c, cfg: cfg, h: h, tree: kdtree.New(pts), halo: pts, res: &Result{}, owner: c.Rank()}
		results[c.Rank()] = rt.res
		local := []geom.Vec3{{X: 0.4, Y: 0.5, Z: 0.5}, {X: 0.6, Y: 0.5, Z: 0.5}}
		return rt.recoveryWorker(local, []int{0, 1}, make([]float64, len(local)), make([]ckptMeta, ranks), -1, nil)
	})
	for r := 1; r < ranks; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		if res := results[r]; res.Incomplete || len(res.Status) != 2 {
			t.Fatalf("rank %d: incomplete=%v failures=%v statuses=%d, want a complete run of 2 items",
				r, res.Incomplete, res.Failures, len(res.Status))
		}
	}
}

// delayControl holds every control message in flight for 50ms.
type delayControl struct{}

func (delayControl) SendVerdict(src, dst, tag, attempt, bytes int) mpi.SendVerdict {
	if tag == tagControl {
		return mpi.SendVerdict{Delay: 50 * time.Millisecond}
	}
	return mpi.SendVerdict{}
}

// TestRecoveryDoneInFlightWhenCoordinatorExits: rank 0 has exited but its
// Done is still in flight. A worker that finds rank 0 gone must still take
// that Done and end cleanly, not report the coordinator unreachable.
func TestRecoveryDoneInFlightWhenCoordinatorExits(t *testing.T) {
	const ranks = 3
	pts := synth.Uniform(300, unitBox(), 7)
	cfg, h := chaosConfig()
	results := make([]*Result, ranks)
	w := mpi.NewWorld(ranks)
	w.SetInjector(delayControl{})
	errs := w.RunEach(func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			for r := 1; r < ranks; r++ {
				if err := c.Send(r, tagControl, control{Kind: ctlDone}); err != nil {
					return err
				}
			}
			return nil
		}
		for c.Alive(0) {
			time.Sleep(100 * time.Microsecond)
		}
		rt := &runtime{c: c, cfg: cfg, h: h, tree: kdtree.New(pts), halo: pts, res: &Result{}, owner: c.Rank()}
		results[c.Rank()] = rt.res
		local := []geom.Vec3{{X: 0.4, Y: 0.5, Z: 0.5}}
		return rt.recoveryWorker(local, []int{0}, make([]float64, len(local)), make([]ckptMeta, ranks), -1, nil)
	})
	for r := 1; r < ranks; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		if res := results[r]; res.Incomplete || len(res.Status) != 1 {
			t.Fatalf("rank %d: incomplete=%v failures=%v statuses=%d, want a complete run of 1 item",
				r, res.Incomplete, res.Failures, len(res.Status))
		}
	}
}

// TestRecoveryCoordinatorSilentButAlive: rank 0 stays alive and never says
// Done. A worker must give up after its bound, keep its partial result and
// report the coordinator unreachable, not hang.
func TestRecoveryCoordinatorSilentButAlive(t *testing.T) {
	const ranks = 3
	pts := synth.Uniform(300, unitBox(), 7)
	cfg, h := chaosConfig()
	h.deadTimeout = 20 * time.Millisecond // the bound need only be finite
	bound := 10 * h.deadTimeout
	results := make([]*Result, ranks)
	returned := make(chan struct{}, ranks-1)
	done := make(chan []error, 1)
	start := time.Now()
	go func() {
		done <- mpi.NewWorld(ranks).RunEach(func(c *mpi.Comm) error {
			if c.Rank() == 0 {
				for r := 1; r < ranks; r++ {
					<-returned // alive and silent until every worker is back
				}
				return nil
			}
			defer func() { returned <- struct{}{} }()
			rt := &runtime{c: c, cfg: cfg, h: h, tree: kdtree.New(pts), halo: pts, res: &Result{}, owner: c.Rank()}
			results[c.Rank()] = rt.res
			local := []geom.Vec3{{X: 0.4, Y: 0.5, Z: 0.5}, {X: 0.6, Y: 0.5, Z: 0.5}}
			return rt.recoveryWorker(local, []int{0, 1}, make([]float64, len(local)), make([]ckptMeta, ranks), -1, nil)
		})
	}()
	var errs []error
	select {
	case errs = <-done:
	case <-time.After(bound + 30*time.Second):
		t.Fatal("worker hung on a silent coordinator")
	}
	if waited := time.Since(start); waited < bound {
		t.Fatalf("workers gave up after %v, before their %v bound", waited, bound)
	}
	for r := 1; r < ranks; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		res := results[r]
		if !res.Incomplete || len(res.Failures) != 1 || !strings.Contains(res.Failures[0], "coordinator unreachable") {
			t.Fatalf("rank %d: incomplete=%v failures=%v, want one coordinator-unreachable failure", r, res.Incomplete, res.Failures)
		}
		if len(res.Status) != 2 {
			t.Fatalf("rank %d: %d statuses, want its 2 computed items kept", r, len(res.Status))
		}
	}
}

// TestRecoveryGiveUpLeavesOneStatusPerField: a straggler silent past
// the dead timeout is given up on while alive. The fields the coordinator lists
// lost must be exactly those the straggler does not keep: every centre
// carries one status across the surviving Results, never lost and done.
func TestRecoveryGiveUpLeavesOneStatusPerField(t *testing.T) {
	const ranks = 4
	pts := synth.HaloSet(4000, unitBox(), synth.DefaultHaloSpec(), 45)
	centers := synth.Uniform(28, unitBox(), 46)
	cfg, h := chaosConfig()
	outs := runChaos(t, ranks, cfg, h, &fault.Plan{
		Stragglers:       []fault.Straggler{{Rank: 1, Factor: 1000}},
		MaxStraggleSleep: 400 * time.Millisecond,
	}, pts, centers)
	statuses := map[geom.Vec3][]string{}
	for r, o := range outs {
		if o.res == nil {
			t.Fatalf("rank %d returned no result: %v", r, o.err)
		}
		for _, s := range o.res.Status {
			statuses[s.Center] = append(statuses[s.Center], fmt.Sprintf("%v@%d", s.State, r))
		}
	}
	for _, ctr := range centers {
		if got := statuses[ctr]; len(got) != 1 {
			t.Errorf("centre %v: statuses %v, want exactly one", ctr, got)
		}
	}
}

func TestNoRecoveryCrashDegradesToPartial(t *testing.T) {
	// Same injection with recovery disabled: survivors must return a
	// partial Result with per-field status plus an error — not hang, not
	// panic.
	const ranks = 4
	pts := synth.HaloSet(3000, unitBox(), synth.DefaultHaloSpec(), 43)
	centers := synth.Uniform(28, unitBox(), 44)
	cfg, h := chaosConfig()
	cfg.Recovery = false

	done := make(chan []rankOut, 1)
	go func() {
		done <- runChaos(t, ranks, cfg, h, &fault.Plan{
			Crashes: []fault.Crash{{Rank: 2, Point: fault.PointPhase4, After: 0}},
		}, pts, centers)
	}()
	var outs []rankOut
	select {
	case outs = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("non-recovery run hung on the crashed rank")
	}

	if !errors.Is(outs[2].err, fault.ErrInjectedCrash) {
		t.Fatalf("rank 2 error = %v", outs[2].err)
	}
	for _, r := range []int{0, 1, 3} {
		o := outs[r]
		if o.err == nil {
			t.Fatalf("survivor rank %d should report the incomplete run", r)
		}
		if o.res == nil || !o.res.Incomplete {
			t.Fatalf("survivor rank %d must keep a partial result", r)
		}
		if len(o.res.Failures) == 0 {
			t.Fatalf("survivor rank %d has no failure summary", r)
		}
		// What it did compute is recorded as done.
		if len(o.res.Status) != len(o.res.Items) {
			t.Fatalf("rank %d: %d statuses for %d items", r, len(o.res.Status), len(o.res.Items))
		}
		for _, s := range o.res.Status {
			if s.State != FieldDone {
				t.Fatalf("rank %d: unexpected state %v", r, s.State)
			}
		}
	}
}

func TestRecoveryStragglerYield(t *testing.T) {
	// A rank slowed ~50x must be told to yield; its unfinished items are
	// recomputed by the buddy, every field is produced exactly once, and
	// the slow rank's already-finished fields are kept (no double work).
	const ranks = 4
	pts := synth.HaloSet(4000, unitBox(), synth.DefaultHaloSpec(), 45)
	centers := synth.Uniform(28, unitBox(), 46)
	cfg, h := chaosConfig()
	h.stragglerThreshold = 2
	// The injected sleeps (300ms) silence the straggler's heartbeats far
	// longer than the default stall guard; a deployment would size the
	// dead timeout above its worst-case item time just the same.
	h.deadTimeout = 5 * time.Second

	outs := runChaos(t, ranks, cfg, h, &fault.Plan{
		Stragglers:       []fault.Straggler{{Rank: 1, Factor: 50}},
		MaxStraggleSleep: 300 * time.Millisecond,
	}, pts, centers)
	for r, o := range outs {
		if o.err != nil {
			t.Fatalf("rank %d: %v", r, o.err)
		}
	}

	// Every center rendered exactly once across the world.
	seen := map[geom.Vec3]int{}
	recovered := 0
	for _, o := range outs {
		for _, s := range o.res.Status {
			seen[s.Center]++
			if s.State == FieldRecovered {
				recovered++
			}
		}
	}
	for ctr, n := range seen {
		if n != 1 {
			t.Fatalf("field at %v computed %d times", ctr, n)
		}
	}
	if recovered == 0 {
		t.Fatal("straggler was never yielded/re-dispatched")
	}
	// All pending centers are covered (samples add ranks' test items).
	for _, ctr := range centers {
		found := false
		for s := range seen {
			if s == ctr {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("center %v never computed", ctr)
		}
	}
}

func TestRecoveryUnrecoverableLossIsReported(t *testing.T) {
	// A rank and its ring buddy both die: the ward's fields are
	// unrecoverable. The coordinator must declare them lost in its Result
	// and terminate rather than hang.
	const ranks = 4
	pts := synth.HaloSet(3000, unitBox(), synth.DefaultHaloSpec(), 47)
	centers := synth.Uniform(28, unitBox(), 48)
	cfg, h := chaosConfig()

	done := make(chan []rankOut, 1)
	go func() {
		done <- runChaos(t, ranks, cfg, h, &fault.Plan{
			Crashes: []fault.Crash{
				{Rank: 1, Point: fault.PointPhase4, After: 0},
				{Rank: 2, Point: fault.PointPhase4, After: 0},
			},
		}, pts, centers)
	}()
	var outs []rankOut
	select {
	case outs = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("unrecoverable-loss run hung")
	}

	coord := outs[0].res
	if coord == nil {
		t.Fatalf("coordinator result missing: %v", outs[0].err)
	}
	if !coord.Incomplete || outs[0].err == nil {
		t.Fatal("coordinator must report the incomplete run")
	}
	lost, recovered := 0, 0
	for _, o := range outs {
		if o.res == nil {
			continue
		}
		for _, s := range o.res.Status {
			switch s.State {
			case FieldLost:
				lost++
				if s.Owner != 1 {
					t.Fatalf("lost field attributed to rank %d, want 1 (buddy of 1 is dead)", s.Owner)
				}
			case FieldRecovered:
				recovered++
				// Owner 2's fields are recovered by buddy 3; a survivor may
				// additionally be yielded (model noise) and recovered, but
				// rank 1's fields must never appear recovered — its
				// checkpoint died with rank 2.
				if s.Owner == 1 {
					t.Fatal("rank 1's fields recovered despite its buddy being dead")
				}
			}
		}
	}
	if lost == 0 {
		t.Fatal("no fields declared lost")
	}
	if recovered == 0 {
		t.Fatal("rank 2's fields should have been recovered by rank 3")
	}
}

func TestRecoveryUnderMessageChaos(t *testing.T) {
	// Drops and delays on every protocol message (checkpoints, heartbeats,
	// control, collectives): retries must absorb them and the run must
	// complete every field.
	const ranks = 4
	pts := synth.HaloSet(3000, unitBox(), synth.DefaultHaloSpec(), 49)
	centers := synth.Uniform(28, unitBox(), 50)
	cfg, h := chaosConfig()

	outs := runChaos(t, ranks, cfg, h, &fault.Plan{
		Seed:      51,
		DropProb:  0.2,
		DelayProb: 0.2,
		Delay:     time.Millisecond,
	}, pts, centers)
	for r, o := range outs {
		if o.err != nil {
			t.Fatalf("rank %d: %v", r, o.err)
		}
	}
	seen := map[geom.Vec3]bool{}
	for _, o := range outs {
		for _, s := range o.res.Status {
			if s.State == FieldLost {
				t.Fatalf("field at %v lost under message chaos", s.Center)
			}
			seen[s.Center] = true
		}
	}
	for _, ctr := range centers {
		if !seen[ctr] {
			t.Fatalf("center %v never computed", ctr)
		}
	}
}

func TestChaosLostWorkPackage(t *testing.T) {
	// A work package dropped past the retry budget, without recovery: the
	// sender records the loss, and the receiver that waits for the package
	// must be released instead of blocking on a live sender forever. Every
	// field ends up in exactly one rank's Status or in the item count of a
	// "shipping N items ... failed" entry. These seeds drop a package after
	// Phases 1-3 went through.
	pts := synth.HaloSet(8000, unitBox(), synth.DefaultHaloSpec(), 6)
	var centers []geom.Vec3
	for i := 0; i < 18; i++ {
		centers = append(centers, geom.Vec3{X: 0.1 + 0.02*float64(i%4), Y: 0.1 + 0.02*float64(i/4), Z: 0.15})
	}
	cfg := Config{Box: unitBox(), FieldLen: 0.14, GridN: 10, LoadBalance: true, Seed: 7}
	for _, seed := range []int64{6, 39, 51, 52} {
		done := make(chan []rankOut, 1)
		go func() {
			done <- runChaos(t, 4, cfg, hooks{maxSendRetries: 1}, &fault.Plan{Seed: seed, DropProb: 0.04, DropCount: 100}, pts, centers)
		}()
		var outs []rankOut
		select {
		case outs = <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("seed %d: the run hung on a lost work package", seed)
		}
		statuses := map[geom.Vec3]int{}
		lost, released := 0, false
		for r, o := range outs {
			if o.res == nil {
				t.Fatalf("seed %d rank %d: no partial result: %v", seed, r, o.err)
			}
			for _, s := range o.res.Status {
				statuses[s.Center]++
			}
			for _, f := range o.res.Failures {
				var n, to int
				if _, err := fmt.Sscanf(f, "phase 4: shipping %d items to rank %d failed", &n, &to); err == nil {
					lost += n
					if o.err == nil {
						t.Errorf("seed %d rank %d: lost a package but returned no error", seed, r)
					}
				}
				if strings.HasPrefix(f, "phase 4: work package from rank") {
					released = true
				}
			}
		}
		if lost == 0 || !released {
			t.Fatalf("seed %d: no package was lost (%d items) or no receiver released (%v): the test checks nothing", seed, lost, released)
		}
		missing := 0
		for _, ctr := range centers {
			switch statuses[ctr] {
			case 0:
				missing++
			case 1:
			default:
				t.Errorf("seed %d: centre %v has %d statuses", seed, ctr, statuses[ctr])
			}
		}
		if missing != lost {
			t.Errorf("seed %d: %d fields have no status, the failures name %d lost items", seed, missing, lost)
		}
	}
}
