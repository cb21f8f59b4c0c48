package fieldserve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"godtfe/internal/fault"
)

// TestServeOverloadSmoke is the overload chaos test from the PR's
// acceptance criteria: an open-loop burst at well over 2× queue+worker
// capacity, with injected slow clients and mid-flight cancellations.
// The service must shed explicitly (typed ErrOverloaded) rather than
// queue unboundedly, flag every degraded response, serve only
// bit-identical grids, and leak no goroutines after Close.
func TestServeOverloadSmoke(t *testing.T) {
	baseline := runtime.NumGoroutine()

	pts := testPoints(1200, 21)
	inj := fault.New(fault.Plan{
		Seed:            77,
		SlowClientProb:  0.2,
		SlowClientDelay: 3 * time.Millisecond,
		CancelProb:      0.2,
		CancelAfter:     2 * time.Millisecond,
	})
	s := New(Options{Workers: 2, QueueDepth: 4, MaxDegrade: 1})
	if err := s.Register("halos", pts); err != nil {
		t.Fatal(err)
	}

	// Reference checksums for every spec the burst can request, plus the
	// coarse fallbacks, rendered outside the service. The burst grids are
	// 256x256 so a single render outlasts the scheduler's preemption
	// quantum: on a single-core host a short render would otherwise run
	// to completion before the remaining burst goroutines are even
	// scheduled, and the "burst" would hit a warm cache instead of a
	// full queue.
	specSeeds := []int64{0, 1, 2, 3, 4, 5}
	want := make(map[Key]uint64)
	for _, seed := range specSeeds {
		fine := testSpec(256, seed)
		want[Key{"halos", fine}] = directChecksum(t, pts, fine)
		coarse, ok := Coarsen(fine, 1)
		if !ok {
			t.Fatal("spec must coarsen")
		}
		want[Key{"halos", coarse}] = directChecksum(t, pts, coarse)
	}
	// Warm the degrade ladder with the coarse renderings.
	for _, seed := range specSeeds {
		coarse, _ := Coarsen(testSpec(256, seed), 1)
		if _, err := s.Serve(context.Background(), Request{Catalog: "halos", Spec: coarse}); err != nil {
			t.Fatal(err)
		}
	}

	// Open-loop burst: 8× the (queue + workers) capacity, all released at
	// the same instant (the gate keeps goroutine-launch spread from
	// letting early requests complete before late ones arrive).
	const burst = 48
	start := make(chan struct{})
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		shed      int
		degraded  int
		ok        int
		cancelled int
	)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v := inj.RequestVerdict(uint64(i))
			if v.SlowClient {
				time.Sleep(v.Delay)
			}
			ctx := context.Background()
			if v.Cancel {
				cctx, cancel := context.WithTimeout(ctx, v.CancelAfter)
				defer cancel()
				ctx = cctx
			}
			spec := testSpec(256, specSeeds[i%len(specSeeds)])
			resp, err := s.Serve(ctx, Request{Catalog: "halos", Spec: spec})

			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				key := Key{"halos", spec}
				if resp.Degraded {
					degraded++
					coarse, _ := Coarsen(spec, resp.DegradeLevel)
					key = Key{"halos", coarse}
				} else {
					ok++
				}
				if resp.Checksum != want[key] || resp.Grid.Checksum() != want[key] {
					t.Errorf("request %d: served bits differ from direct render", i)
				}
			case errors.Is(err, ErrOverloaded):
				shed++
				var oe *OverloadError
				if !errors.As(err, &oe) || oe.RetryAfter <= 0 {
					t.Errorf("request %d: shed without typed retry-after: %v", i, err)
				}
			case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
				cancelled++
			default:
				t.Errorf("request %d: unexpected error %v", i, err)
			}
		}(i)
	}

	close(start)
	// The whole burst must resolve quickly — shedding means nobody ever
	// blocks behind an unbounded queue.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("burst did not resolve: requests blocked instead of shedding")
	}

	st := s.Stats()
	t.Logf("burst=%d ok=%d shed=%d degraded=%d cancelled=%d stats=%+v",
		burst, ok, shed, degraded, cancelled, st)
	if ok == 0 {
		t.Fatal("no request was served at all")
	}
	if shed == 0 && degraded == 0 {
		t.Fatal("8× overload produced neither shedding nor degradation")
	}
	if st.Shed != uint64(shed) || st.Degraded != uint64(degraded) {
		t.Fatalf("stats disagree with observed outcomes: %+v", st)
	}
	offered := uint64(len(specSeeds) + burst) // warm-ups included
	checkConservation(t, st, offered)

	// Phase 2: same burst against specs whose degrade ladder is cold —
	// with no coarser rendering to fall back on, overload MUST shed with
	// the typed error, and nothing may block behind the full queue.
	coldStart := make(chan struct{})
	var (
		coldShed int
		coldWG   sync.WaitGroup
	)
	for i := 0; i < burst; i++ {
		coldWG.Add(1)
		go func(i int) {
			defer coldWG.Done()
			<-coldStart
			spec := testSpec(256, int64(100+i%6))
			resp, err := s.Serve(context.Background(), Request{Catalog: "halos", Spec: spec})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				if resp.Degraded {
					t.Errorf("cold request %d served degraded off an unwarmed ladder", i)
				}
			case errors.Is(err, ErrOverloaded):
				coldShed++
			default:
				t.Errorf("cold request %d: unexpected error %v", i, err)
			}
		}(i)
	}
	close(coldStart)
	coldDone := make(chan struct{})
	go func() { coldWG.Wait(); close(coldDone) }()
	select {
	case <-coldDone:
	case <-time.After(60 * time.Second):
		t.Fatal("cold burst did not resolve: requests blocked instead of shedding")
	}
	t.Logf("cold burst: shed=%d of %d", coldShed, burst)
	if coldShed == 0 {
		t.Fatal("cold-ladder overload never shed with ErrOverloaded")
	}
	checkConservation(t, s.Stats(), offered+burst)

	s.Close()
	// No goroutine leaks: everything the service started must unwind.
	waitNoLeak(t, baseline)
}

// checkConservation asserts that every request offered so far left Serve
// through exactly one terminal counter: served (degraded included), shed or
// expired.
func checkConservation(t *testing.T, st Stats, offered uint64) {
	t.Helper()
	if got := st.Served + st.Shed + st.Expired; got != offered {
		t.Fatalf("served %d + shed %d + expired %d = %d, want the %d requests offered",
			st.Served, st.Shed, st.Expired, got, offered)
	}
}
