package pipeline

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"godtfe/internal/fault"
	"godtfe/internal/geom"
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
// plan installed on both the message layer and Phase 4's compute steps,
// with the particles dealt round-robin and every centre starting on rank 0.
func runChaos(t *testing.T, ranks int, cfg Config, h hooks, plan *fault.Plan, pts, centers []geom.Vec3) []rankOut {
	t.Helper()
	w := mpi.NewWorld(ranks)
	if plan != nil {
		inj := fault.New(*plan)
		w.SetInjector(inj)
		h.fault = inj
	}
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

// TestChaosCrashDegradesToPartial: a rank dies at a Phase 4 compute step,
// with and without the work-sharing schedule. The survivors must not hang
// or panic: each returns a partial Result, with per-field status for what
// it computed, plus an error, and no centre is reported twice.
func TestChaosCrashDegradesToPartial(t *testing.T) {
	const ranks, crashRank = 4, 2
	pts := synth.HaloSet(6000, unitBox(), synth.DefaultHaloSpec(), 43)
	centers := synth.Uniform(28, unitBox(), 44)
	for i := 0; i < 12; i++ {
		// A crowded corner on rank 0. The schedule follows the cost model
		// fitted from timed items, so it ships work in most runs, not all.
		centers = append(centers, geom.Vec3{X: 0.1 + 0.02*float64(i%4), Y: 0.1 + 0.02*float64(i/4), Z: 0.15})
	}
	for _, lb := range []bool{false, true} {
		for _, after := range []int{0, 1} {
			t.Run(fmt.Sprintf("loadbalance=%v/after=%d", lb, after), func(t *testing.T) {
				cfg := Config{Box: unitBox(), FieldLen: 0.15, GridN: 8, LoadBalance: lb, KeepFields: true, Seed: 17}
				done := make(chan []rankOut, 1)
				go func() {
					done <- runChaos(t, ranks, cfg, hooks{}, &fault.Plan{
						Crashes: []fault.Crash{{Rank: crashRank, Point: fault.PointPhase4, After: after}},
					}, pts, centers)
				}()
				var outs []rankOut
				select {
				case outs = <-done:
				case <-time.After(30 * time.Second):
					t.Fatal("the run hung on the crashed rank")
				}

				if !errors.Is(outs[crashRank].err, fault.ErrInjectedCrash) {
					t.Fatalf("rank %d error = %v, want the injected crash", crashRank, outs[crashRank].err)
				}
				statuses := map[geom.Vec3]int{}
				for r, o := range outs {
					if r == crashRank {
						continue
					}
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
						statuses[s.Center]++
					}
				}
				for ctr, n := range statuses {
					if n > 1 {
						t.Errorf("centre %v has %d statuses", ctr, n)
					}
				}
			})
		}
	}
}

// TestChaosPeerGoneBeforeExchange: a rank that exits before Phase 1 fails
// the particle exchange on every survivor, which returns a partial Result
// naming the stage plus an error that wraps mpi.ErrRankFailed.
func TestChaosPeerGoneBeforeExchange(t *testing.T) {
	const ranks, gone = 3, 2
	pts := synth.Uniform(600, unitBox(), 5)
	centers := synth.Uniform(6, unitBox(), 6)
	cfg := Config{Box: unitBox(), FieldLen: 0.15, GridN: 4, Seed: 1}
	outs := make([]rankOut, ranks)
	mpi.NewWorld(ranks).RunEach(func(c *mpi.Comm) error {
		if c.Rank() == gone {
			return errors.New("gone before the run")
		}
		var local, ctrs []geom.Vec3
		if c.Rank() == 0 {
			local, ctrs = pts, centers
		}
		res, err := Run(c, cfg, local, ctrs)
		outs[c.Rank()] = rankOut{res, err}
		return err
	})
	for r, o := range outs {
		if r == gone {
			continue
		}
		if !errors.Is(o.err, mpi.ErrRankFailed) {
			t.Fatalf("rank %d: error %v, want one wrapping mpi.ErrRankFailed", r, o.err)
		}
		if o.res == nil || !o.res.Incomplete || len(o.res.Failures) != 1 || !strings.HasPrefix(o.res.Failures[0], "phase 1 exchange: ") {
			t.Fatalf("rank %d: want a partial result with one phase 1 exchange failure, got %+v", r, o.res)
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
