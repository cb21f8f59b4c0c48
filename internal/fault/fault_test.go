package fault

import (
	"errors"
	"testing"
	"time"
)

func TestShouldCrashFiresAtProgress(t *testing.T) {
	in := New(Plan{Crashes: []Crash{{Rank: 2, Point: PointPhase4, After: 3}}})
	if in.ShouldCrash(2, PointPhase4, 2) {
		t.Fatal("fired before After")
	}
	if !in.ShouldCrash(2, PointPhase4, 3) || !in.ShouldCrash(2, PointPhase4, 10) {
		t.Fatal("did not fire at/after After")
	}
	if in.ShouldCrash(1, PointPhase4, 5) || in.ShouldCrash(2, PointTile, 5) {
		t.Fatal("fired for wrong rank or point")
	}
}

func TestCrashedErrorWrapsSentinel(t *testing.T) {
	err := Crashed(3, PointPhase4, 7)
	if !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("not wrapping ErrInjectedCrash: %v", err)
	}
}

func TestStraggleFactor(t *testing.T) {
	in := New(Plan{Stragglers: []Straggler{{Rank: 1, Factor: 8}, {Rank: 2, Factor: 0.5}}})
	if got := in.StraggleFactor(1); got != 8 {
		t.Fatalf("factor = %v", got)
	}
	// Factors <= 1 are ignored (cannot speed ranks up).
	if got := in.StraggleFactor(2); got != 1 {
		t.Fatalf("sub-unit factor accepted: %v", got)
	}
	if got := in.StraggleFactor(0); got != 1 {
		t.Fatalf("unafflicted rank slowed: %v", got)
	}
}

func TestSendVerdictDeterministicAcrossInjectors(t *testing.T) {
	plan := Plan{Seed: 7, DropProb: 0.5, DelayProb: 0.5, Delay: time.Millisecond}
	a, b := New(plan), New(plan)
	for msg := 0; msg < 100; msg++ {
		va := a.SendVerdict(0, 1, 9, 0, 64)
		vb := b.SendVerdict(0, 1, 9, 0, 64)
		if va != vb {
			t.Fatalf("message %d: %+v vs %+v", msg, va, vb)
		}
	}
}

func TestSendVerdictSeedChangesSchedule(t *testing.T) {
	diff := 0
	a := New(Plan{Seed: 1, DropProb: 0.5})
	b := New(Plan{Seed: 2, DropProb: 0.5})
	for msg := 0; msg < 200; msg++ {
		if a.SendVerdict(0, 1, 9, 0, 64).Drop != b.SendVerdict(0, 1, 9, 0, 64).Drop {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical drop schedules")
	}
}

func TestDropCountBoundsRetries(t *testing.T) {
	// A dropped message must stop being dropped after DropCount attempts so
	// default retry budgets eventually deliver it.
	in := New(Plan{Seed: 3, DropProb: 1, DropCount: 2})
	if !in.SendVerdict(0, 1, 5, 0, 10).Drop {
		t.Fatal("attempt 0 not dropped with DropProb=1")
	}
	if !in.SendVerdict(0, 1, 5, 1, 10).Drop {
		t.Fatal("attempt 1 not dropped")
	}
	if in.SendVerdict(0, 1, 5, 2, 10).Drop {
		t.Fatal("attempt 2 dropped beyond DropCount")
	}
}

func TestDelayJitterWithinBounds(t *testing.T) {
	in := New(Plan{Seed: 5, DelayProb: 1, Delay: 10 * time.Millisecond})
	for msg := 0; msg < 50; msg++ {
		v := in.SendVerdict(2, 3, 1, 0, 8)
		if v.Delay < 5*time.Millisecond || v.Delay > 15*time.Millisecond {
			t.Fatalf("message %d: delay %v outside [0.5, 1.5]x", msg, v.Delay)
		}
	}
}

func TestStraggleSleepCapped(t *testing.T) {
	in := New(Plan{
		Stragglers:       []Straggler{{Rank: 0, Factor: 1000}},
		MaxStraggleSleep: 5 * time.Millisecond,
	})
	start := time.Now()
	in.StraggleSleep(0, time.Second)
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("sleep not capped: %v", d)
	}
	// Unafflicted rank must not sleep at all.
	start = time.Now()
	in.StraggleSleep(1, time.Second)
	if d := time.Since(start); d > time.Millisecond {
		t.Fatalf("unafflicted rank slept %v", d)
	}
}

func TestRequestVerdictDeterministic(t *testing.T) {
	plan := Plan{
		Seed:            17,
		SlowClientProb:  0.3,
		SlowClientDelay: 10 * time.Millisecond,
		CancelProb:      0.2,
		CancelAfter:     4 * time.Millisecond,
	}
	a, b := New(plan), New(plan)
	var slow, cancels int
	diverged := false
	plan2 := plan
	plan2.Seed = 18
	c := New(plan2)
	for id := uint64(0); id < 10_000; id++ {
		va, vb := a.RequestVerdict(id), b.RequestVerdict(id)
		if va != vb {
			t.Fatalf("id %d: same plan diverged: %+v vs %+v", id, va, vb)
		}
		if va != c.RequestVerdict(id) {
			diverged = true
		}
		if va.SlowClient {
			slow++
			if va.Delay < 5*time.Millisecond || va.Delay > 15*time.Millisecond {
				t.Fatalf("id %d: slow-client delay %v outside jitter bounds", id, va.Delay)
			}
		} else if va.Delay != 0 {
			t.Fatalf("id %d: delay set without slow-client", id)
		}
		if va.Cancel {
			cancels++
			if va.CancelAfter < 2*time.Millisecond || va.CancelAfter > 6*time.Millisecond {
				t.Fatalf("id %d: cancel-after %v outside jitter bounds", id, va.CancelAfter)
			}
		}
	}
	if !diverged {
		t.Fatal("different seed never changed a verdict")
	}
	check := func(name string, n int, p float64) {
		t.Helper()
		got := float64(n) / 10_000
		if got < p*0.7 || got > p*1.3 {
			t.Fatalf("%s rate %.3f far from plan %.3f", name, got, p)
		}
	}
	check("slow-client", slow, plan.SlowClientProb)
	check("cancel", cancels, plan.CancelProb)
}

func TestRequestVerdictZeroPlanSilent(t *testing.T) {
	in := New(Plan{Seed: 1})
	for id := uint64(0); id < 100; id++ {
		if v := in.RequestVerdict(id); v != (RequestFault{}) {
			t.Fatalf("zero plan injected %+v", v)
		}
	}
}

func TestOverlapVerdict(t *testing.T) {
	plan := Plan{Seed: 23, OverlapProb: 0.8, OverlapFamilies: 4}
	a, b := New(plan), New(plan)
	var overlapped int
	hist := make([]int, plan.OverlapFamilies)
	const n = 20_000
	for id := uint64(0); id < n; id++ {
		fam, ov := a.OverlapVerdict(id)
		if fam2, ov2 := b.OverlapVerdict(id); fam != fam2 || ov != ov2 {
			t.Fatalf("id %d: same plan diverged", id)
		}
		if !ov {
			if fam != -1 {
				t.Fatalf("id %d: non-overlap request got family %d", id, fam)
			}
			continue
		}
		if fam < 0 || fam >= plan.OverlapFamilies {
			t.Fatalf("id %d: family %d out of range", id, fam)
		}
		overlapped++
		hist[fam]++
	}
	got := float64(overlapped) / n
	if got < 0.75 || got > 0.85 {
		t.Fatalf("overlap rate %.3f far from configured 0.8", got)
	}
	for fam, c := range hist {
		if c < overlapped/plan.OverlapFamilies/2 {
			t.Fatalf("family %d starved: %d of %d", fam, c, overlapped)
		}
	}
	// Zero plan is silent.
	z := New(Plan{Seed: 23})
	if fam, ov := z.OverlapVerdict(7); ov || fam != -1 {
		t.Fatal("zero plan produced overlap verdicts")
	}
}
