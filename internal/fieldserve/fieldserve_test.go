package fieldserve

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"godtfe/internal/delaunay"
	"godtfe/internal/dtfe"
	"godtfe/internal/geom"
	"godtfe/internal/render"
	"godtfe/internal/synth"
)

func testPoints(n int, seed int64) []geom.Vec3 {
	box := geom.AABB{Min: geom.Vec3{}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	return synth.HaloSet(n, box, synth.DefaultHaloSpec(), seed)
}

// testSpec builds an n×n spec; seed varies the cache key without
// changing the cost.
func testSpec(n int, seed int64) render.Spec {
	pad := 0.02
	return render.Spec{
		Min: geom.Vec2{X: -pad, Y: -pad},
		Nx:  n, Ny: n, Cell: (1 + 2*pad) / float64(n),
		Samples: 1, Seed: seed,
	}
}

// waitNoLeak fails the test unless the goroutine count returns to the
// baseline taken before the service was created (everything a closed
// service started must unwind).
func waitNoLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d now vs %d baseline\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// directChecksum renders spec outside the service, from the same points,
// for bit-identity checks.
func directChecksum(t testing.TB, pts []geom.Vec3, spec render.Spec) uint64 {
	t.Helper()
	tri, err := delaunay.New(pts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := dtfe.NewField(tri, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := render.NewMarcher(f).Render(spec, 1, render.ScheduleDynamic)
	if err != nil {
		t.Fatal(err)
	}
	return g.Checksum()
}

func TestCoarsen(t *testing.T) {
	spec := testSpec(64, 1)
	c1, ok := Coarsen(spec, 1)
	if !ok || c1.Nx != 32 || c1.Ny != 32 || c1.Cell != spec.Cell*2 || c1.Min != spec.Min {
		t.Fatalf("level 1 coarsen wrong: %+v", c1)
	}
	c2, ok := Coarsen(spec, 2)
	if !ok || c2.Nx != 16 || c2.Cell != spec.Cell*4 {
		t.Fatalf("level 2 coarsen wrong: %+v", c2)
	}
	if _, ok := Coarsen(testSpec(63, 1), 1); ok {
		t.Fatal("odd grid coarsened")
	}
	if same, ok := Coarsen(spec, 0); !ok || same != spec {
		t.Fatal("level 0 must be identity")
	}
	if _, ok := Coarsen(spec, -1); ok {
		t.Fatal("negative level accepted")
	}
	if c6, ok := Coarsen(spec, 6); !ok || c6.Nx != 1 || c6.Ny != 1 {
		t.Fatalf("level 6 of a 64-cell grid wrong: %+v", c6)
	}
	// The factor 1<<level exceeds the grid at 7 and wraps at 63 and beyond.
	for _, level := range []int{7, 63, 64, 1000} {
		if c, ok := Coarsen(spec, level); ok || c != (render.Spec{}) {
			t.Fatalf("level %d: got %+v, %v; want the zero spec and false", level, c, ok)
		}
	}
}

// Every grid the service serves must be bit-identical to a direct
// render.Render of the same spec — residency, caching, and concurrency
// must not perturb a single bit.
func TestServeBitIdentical(t *testing.T) {
	t.Run("cached", testServeBitIdentical)
}

func testServeBitIdentical(t *testing.T) {
	pts := testPoints(600, 3)
	s := New(Options{Workers: 2})
	defer s.Close()
	if err := s.Register("halos", pts); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2} {
		spec := testSpec(32, seed)
		resp, err := s.Serve(context.Background(), Request{Catalog: "halos", Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		if want := directChecksum(t, pts, spec); resp.Checksum != want {
			t.Fatalf("served grid checksum %#x, direct render %#x", resp.Checksum, want)
		}
		if resp.Grid.Checksum() != resp.Checksum {
			t.Fatal("response checksum does not match the grid it carries")
		}
		// Second request: assembled inline from the first one's columns,
		// same bits in a grid of its own.
		again, err := s.Serve(context.Background(), Request{Catalog: "halos", Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		if !again.CacheHit {
			t.Fatal("repeat request missed the column cache")
		}
		if again.Checksum != resp.Checksum || again.Grid.Checksum() != resp.Checksum {
			t.Fatal("cache hit served different bits")
		}
		if again.Grid == resp.Grid {
			t.Fatal("a hit must be a fresh assembly, not a shared pointer")
		}
	}
}

// The mesh for a catalog is built exactly once no matter how many
// requests race to first use, and the build survives its initiator's
// cancellation.
func TestSingleFlightBuild(t *testing.T) {
	s := New(Options{Workers: 4, QueueDepth: 32})
	defer s.Close()
	if err := s.Register("halos", testPoints(800, 5)); err != nil {
		t.Fatal(err)
	}

	// First wave: the initiating request is cancelled almost immediately;
	// the build must keep going for everyone else.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Millisecond)
		cancel()
	}()
	_, _ = s.Serve(ctx, Request{Catalog: "halos", Spec: testSpec(24, 99)})

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Serve(context.Background(), Request{Catalog: "halos", Spec: testSpec(24, int64(i))})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil && !errors.Is(err, ErrOverloaded) {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if st := s.Stats(); st.Builds != 1 {
		t.Fatalf("builds = %d, want exactly 1", st.Builds)
	}
}

// Requests against unknown catalogs, duplicate registrations, and a
// closed service all fail with their typed errors.
func TestRequestValidation(t *testing.T) {
	s := New(Options{})
	if err := s.Register("a", testPoints(200, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("a", testPoints(200, 2)); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := s.Register("", testPoints(200, 3)); err == nil {
		t.Fatal("empty catalog name accepted")
	}
	_, err := s.Serve(context.Background(), Request{Catalog: "nope", Spec: testSpec(16, 0)})
	if !errors.Is(err, ErrUnknownCatalog) {
		t.Fatalf("unknown catalog: err = %v", err)
	}
	bad := testSpec(16, 0)
	bad.Nx = 0
	if _, err := s.Serve(context.Background(), Request{Catalog: "a", Spec: bad}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Serve(context.Background(), Request{Catalog: "a", Spec: testSpec(16, 0)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed service: err = %v", err)
	}
	if err := s.Register("b", testPoints(200, 4)); !errors.Is(err, ErrClosed) {
		t.Fatalf("register on closed service: err = %v", err)
	}
}

// A cancelled request surfaces the context error and releases its worker
// promptly: a follow-up request on the same single-worker service
// completes instead of waiting out the aborted render.
func TestCancelReleasesWorker(t *testing.T) {
	pts := testPoints(2500, 7)
	s := New(Options{Workers: 1, QueueDepth: 4})
	defer s.Close()
	if err := s.Register("halos", pts); err != nil {
		t.Fatal(err)
	}
	// Warm the mesh so cancellation timing tests the render, not the build.
	if _, err := s.Serve(context.Background(), Request{Catalog: "halos", Spec: testSpec(8, 0)}); err != nil {
		t.Fatal(err)
	}

	big := testSpec(512, 1)
	big.Samples = 2
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Serve(ctx, Request{Catalog: "halos", Spec: big})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled request: err = %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled request never returned")
	}

	start := time.Now()
	resp, err := s.Serve(context.Background(), Request{Catalog: "halos", Spec: testSpec(16, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Grid == nil {
		t.Fatal("post-cancel request returned no grid")
	}
	// The big render would take far longer than this; the worker must
	// have been released mid-march.
	if el := time.Since(start); el > 15*time.Second {
		t.Fatalf("worker held for %v after cancellation", el)
	}
	if st := s.Stats(); st.Expired != 1 {
		t.Fatalf("one cancelled request counted %d times in Expired", st.Expired)
	}

	// A deadline already in the past must not march at all.
	exp, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := s.Serve(exp, Request{Catalog: "halos", Spec: testSpec(16, 3)}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired ctx: err = %v", err)
	}
}

// Under overload with the coarser family's columns resident, the service
// serves the coarse grid flagged Degraded instead of shedding — whether
// those columns were warmed by the coarse spec itself or by a wider, taller
// window of its family. On the way there: a fully warm request that arrives
// behind a queued one takes a queue slot instead of the inline path.
func TestDegradedFallback(t *testing.T) {
	t.Run("exact", func(t *testing.T) { testDegradedFallback(t, 32, 32) })
	t.Run("wider", func(t *testing.T) { testDegradedFallback(t, 40, 36) })
}

func testDegradedFallback(t *testing.T, warmNx, warmNy int) {
	pts := testPoints(2500, 9)
	s := New(Options{Workers: 1, QueueDepth: 2})
	defer s.Close()
	if err := s.Register("halos", pts); err != nil {
		t.Fatal(err)
	}
	fine := testSpec(64, 4)
	coarse, ok := Coarsen(fine, 1)
	if !ok {
		t.Fatal("64×64 should coarsen")
	}
	// Warm the degrade ladder.
	warm := coarse
	warm.Nx, warm.Ny = warmNx, warmNy
	if _, err := s.Serve(context.Background(), Request{Catalog: "halos", Spec: warm}); err != nil {
		t.Fatal(err)
	}

	// Occupy the worker, then the queue slot, with long renders we cancel
	// at the end of the test. Sequencing on the Batches/QueueLen counters
	// makes the overload state deterministic: the worker is deep in a
	// multi-second render, so the full queue cannot drain under us.
	hold, release := context.WithCancel(context.Background())
	defer release()
	occupy := func(seed int64) {
		big := testSpec(1024, seed)
		big.Samples = 2
		go s.Serve(hold, Request{Catalog: "halos", Spec: big}) //nolint:errcheck
	}
	waitFor := func(what string, cond func(Stats) bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond(s.Stats()) {
			if time.Now().After(deadline) {
				t.Fatalf("%s never happened", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	st0 := s.Stats()
	occupy(10)
	// Batches, not Active: the warm-up's worker may still read as active.
	waitFor("worker pickup", func(st Stats) bool { return st.Batches == st0.Batches+1 })
	occupy(11)
	waitFor("backlog", func(st Stats) bool { return st.QueueLen == 1 })

	// An exact repeat of the warm-up, now behind a backlog: it must wait
	// its turn, and is served by a batch once the long renders are gone.
	queued := make(chan *Response, 1)
	go func() {
		resp, err := s.Serve(context.Background(), Request{Catalog: "halos", Spec: warm})
		if err != nil {
			t.Errorf("warm request behind a backlog: %v", err)
		}
		queued <- resp
	}()
	waitFor("queue fill", func(st Stats) bool { return st.QueueLen == 2 })
	if st := s.Stats(); st.CacheHits != st0.CacheHits {
		t.Fatalf("a request overtook the queue inline: CacheHits %d→%d", st0.CacheHits, st.CacheHits)
	}
	defer func() {
		release()
		if resp := <-queued; resp != nil && resp.Checksum != directChecksum(t, pts, warm) {
			t.Error("queued warm request is not the direct render")
		}
	}()

	resp, err := s.Serve(context.Background(), Request{Catalog: "halos", Spec: fine})
	if err != nil {
		t.Fatalf("expected degraded response, got error %v", err)
	}
	if !resp.Degraded || resp.DegradeLevel != 1 {
		t.Fatalf("response not degraded: %+v", resp)
	}
	if want := directChecksum(t, pts, coarse); resp.Checksum != want || resp.Grid.Checksum() != want {
		t.Fatal("degraded response is not the coarse rendering")
	}
	if st := s.Stats(); st.Degraded == 0 {
		t.Fatal("degraded counter never incremented")
	}

	// With the ladder cold (different seed → nothing cached at any coarser
	// level), the same overload sheds with a typed, hinted error.
	cold := testSpec(64, 77)
	_, err = s.Serve(context.Background(), Request{Catalog: "halos", Spec: cold})
	var oe *OverloadError
	if !errors.As(err, &oe) || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("cold overload: err = %v, want *OverloadError", err)
	}
	if oe.RetryAfter <= 0 {
		t.Fatal("shed without a retry-after hint")
	}
}

// rot flips one mantissa bit of a resident column in place, after its
// checksum was recorded; hit-time verification must catch it.
func (c *colCache) rot(key colKey) {
	if e, ok := c.peek(key); ok {
		i := len(e.vals) / 2
		e.vals[i] = math.Float64frombits(math.Float64bits(e.vals[i]) ^ 1)
	}
}

// Rot in one stored column is caught by hit-time checksum verification:
// the inline probe that finds it falls through, the column is evicted and
// counted, and the response is re-marched bit-identically.
func TestPoisonDetection(t *testing.T) {
	pts := testPoints(600, 11)
	s := New(Options{Workers: 1})
	defer s.Close()
	if err := s.Register("halos", pts); err != nil {
		t.Fatal(err)
	}
	spec := testSpec(32, 5)
	want := directChecksum(t, pts, spec)

	first, err := s.Serve(context.Background(), Request{Catalog: "halos", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if first.Checksum != want {
		t.Fatal("filling request served wrong bits")
	}
	s.colcache.rot(colKey{Catalog: "halos", Family: render.FamilyOf(spec), Col: 0})
	st0 := s.Stats()
	second, err := s.Serve(context.Background(), Request{Catalog: "halos", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheHit {
		t.Fatal("poisoned column served as a cache hit")
	}
	if second.Checksum != want || second.Grid.Checksum() != want {
		t.Fatal("recomputed grid is not bit-identical")
	}
	st := s.Stats()
	if st.ColPoisoned != 1 || st.Poisoned != 0 {
		t.Fatalf("ColPoisoned = %d, Poisoned = %d; want 1, 0", st.ColPoisoned, st.Poisoned)
	}
	if st.Batches != st0.Batches+1 || st.ColdColumns != st0.ColdColumns+1 {
		t.Fatalf("want one batch re-marching the one rotten column: batches %d→%d, cold columns %d→%d",
			st0.Batches, st.Batches, st0.ColdColumns, st.ColdColumns)
	}
}
