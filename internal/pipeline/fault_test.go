package pipeline

import (
	"errors"
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

// runChaos executes the pipeline over a world with a fault plan installed
// on both the message layer and the pipeline's instrumentation points.
func runChaos(t *testing.T, ranks int, cfg Config, plan *fault.Plan, pts, centers []geom.Vec3) []rankOut {
	t.Helper()
	outs := make([]rankOut, ranks)
	w := mpi.NewWorld(ranks)
	if plan != nil {
		inj := fault.New(*plan)
		w.SetInjector(inj)
		cfg.Fault = inj
	}
	w.RunEach(func(c *mpi.Comm) error {
		var local []geom.Vec3
		for i := c.Rank(); i < len(pts); i += ranks {
			local = append(local, pts[i])
		}
		var ctrs []geom.Vec3
		if c.Rank() == 0 {
			ctrs = centers
		}
		res, err := Run(c, cfg, local, ctrs)
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

func chaosConfig() Config {
	return Config{
		Box: unitBox(), FieldLen: 0.15, GridN: 8,
		KeepFields: true, Recovery: true, Seed: 17,
		HeartbeatEvery: 2 * time.Millisecond,
	}
}

func TestRecoveryCrashBitExact(t *testing.T) {
	// The acceptance scenario: a rank dies mid-Phase 4; the run must still
	// complete EVERY field, and the recovered grids must match a
	// failure-free run bit for bit (the buddy recomputes from the exact
	// checkpointed particle set).
	const ranks = 4
	pts := synth.HaloSet(4000, unitBox(), synth.DefaultHaloSpec(), 41)
	centers := synth.Uniform(28, unitBox(), 42)
	cfg := chaosConfig()

	clean := runChaos(t, ranks, cfg, nil, pts, centers)
	for r, o := range clean {
		if o.err != nil {
			t.Fatalf("failure-free recovery run, rank %d: %v", r, o.err)
		}
	}
	want := collectFields(clean)

	crashed := runChaos(t, ranks, cfg, &fault.Plan{
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

// TestRecoveryCoordinatorExitsRightAfterDone forces the ordering that made
// the failure-free run above flake: rank 0 says Done and is gone before a
// worker's first control poll. Done in hand is a clean end of phase — every
// worker returns nil with a complete result, not "coordinator unreachable".
func TestRecoveryCoordinatorExitsRightAfterDone(t *testing.T) {
	const ranks = 3
	pts := synth.Uniform(300, unitBox(), 7)
	cfg := chaosConfig()
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
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
		rt := &runtime{c: c, cfg: cfg, tree: kdtree.New(pts), halo: pts, res: &Result{}, owner: c.Rank()}
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

func TestNoRecoveryCrashDegradesToPartial(t *testing.T) {
	// Same injection with recovery disabled: survivors must return a
	// partial Result with per-field status plus an error — not hang, not
	// panic.
	const ranks = 4
	pts := synth.HaloSet(3000, unitBox(), synth.DefaultHaloSpec(), 43)
	centers := synth.Uniform(28, unitBox(), 44)
	cfg := chaosConfig()
	cfg.Recovery = false

	done := make(chan []rankOut, 1)
	go func() {
		done <- runChaos(t, ranks, cfg, &fault.Plan{
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
	cfg := chaosConfig()
	cfg.StragglerThreshold = 2
	// The injected sleeps (300ms) silence the straggler's heartbeats far
	// longer than the default stall guard; a deployment would size
	// DeadTimeout above its worst-case item time just the same.
	cfg.DeadTimeout = 5 * time.Second

	outs := runChaos(t, ranks, cfg, &fault.Plan{
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
	cfg := chaosConfig()

	done := make(chan []rankOut, 1)
	go func() {
		done <- runChaos(t, ranks, cfg, &fault.Plan{
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
	cfg := chaosConfig()

	outs := runChaos(t, ranks, cfg, &fault.Plan{
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
