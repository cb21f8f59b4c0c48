package fieldserve

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"godtfe/internal/delaunay"
	"godtfe/internal/dtfe"
	"godtfe/internal/fault"
	"godtfe/internal/geom"
	"godtfe/internal/grid"
	"godtfe/internal/render"
)

// serveCatalogs mirrors the render package's equivalence regimes:
// clustered halos, an exact lattice (columns strike vertices and edges),
// and a dirty mix with duplicates and coplanar companions.
func serveCatalogs() map[string][]geom.Vec3 {
	cats := make(map[string][]geom.Vec3)
	cats["clustered"] = testPoints(800, 7)

	var lattice []geom.Vec3
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			for k := 0; k < 6; k++ {
				lattice = append(lattice, geom.Vec3{X: float64(i) / 5, Y: float64(j) / 5, Z: float64(k) / 5})
			}
		}
	}
	cats["lattice"] = lattice

	rng := rand.New(rand.NewSource(42))
	var dirty []geom.Vec3
	for len(dirty) < 300 {
		p := geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		dirty = append(dirty, p)
		if rng.Float64() < 0.2 {
			dirty = append(dirty, p)
		}
		if rng.Float64() < 0.3 {
			dirty = append(dirty, geom.Vec3{X: math.Round(p.X*4) / 4, Y: math.Round(p.Y*4) / 4, Z: p.Z})
		}
	}
	cats["dirty"] = dirty
	return cats
}

// directMarcher builds the out-of-service reference kernel for a catalog.
func directMarcher(t testing.TB, pts []geom.Vec3) *render.Marcher {
	t.Helper()
	tri, err := delaunay.New(pts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := dtfe.NewField(tri, nil)
	if err != nil {
		t.Fatal(err)
	}
	return render.NewMarcher(f)
}

// TestCoalescedBitIdentical is the PR's bit-exactness property test:
// concurrent requests across overlapping spec families (same family key,
// different window extents) are batched into shared marches and assembled
// from the column cache, and every response must be byte-identical to a
// direct render.Render of its own spec — for clustered, lattice, and
// dirty catalogs. Run under -race this is also the batcher's concurrency
// soak.
func TestCoalescedBitIdentical(t *testing.T) {
	extents := [][2]int{{48, 48}, {32, 40}, {40, 24}, {16, 48}, {24, 32}}
	for name, pts := range serveCatalogs() {
		t.Run(name, func(t *testing.T) {
			s := New(Options{Workers: 2, QueueDepth: 32, BatchWindow: 2 * time.Millisecond, MaxBatch: 8})
			defer s.Close()
			if err := s.Register(name, pts); err != nil {
				t.Fatal(err)
			}
			m := directMarcher(t, pts)

			// Two families (jitter seeds 5 and 6) × five window extents.
			var specs []render.Spec
			want := make(map[render.Spec]uint64)
			for _, seed := range []int64{5, 6} {
				base := testSpec(48, seed)
				base.Samples = 2
				for _, e := range extents {
					sub := base
					sub.Nx, sub.Ny = e[0], e[1]
					g, _, err := m.Render(sub, 1, render.ScheduleDynamic)
					if err != nil {
						t.Fatal(err)
					}
					specs = append(specs, sub)
					want[sub] = g.Checksum()
				}
			}

			var wg sync.WaitGroup
			start := make(chan struct{})
			for i := 0; i < 3*len(specs); i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					<-start
					spec := specs[i%len(specs)]
					resp, err := s.Serve(context.Background(), Request{Catalog: name, Spec: spec})
					if err != nil {
						if errors.Is(err, ErrOverloaded) {
							return
						}
						t.Errorf("request %d: %v", i, err)
						return
					}
					if resp.Checksum != want[spec] || resp.Grid.Checksum() != want[spec] {
						t.Errorf("request %d (%dx%d): served bits differ from direct render", i, spec.Nx, spec.Ny)
					}
				}(i)
			}
			close(start)
			wg.Wait()

			// A fresh extent after the storm must assemble entirely from
			// cached columns: no new columns marched, still bit-identical.
			st0 := s.Stats()
			fresh := testSpec(48, 5)
			fresh.Samples = 2
			fresh.Nx, fresh.Ny = 47, 47
			g, _, err := m.Render(fresh, 1, render.ScheduleDynamic)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := s.Serve(context.Background(), Request{Catalog: name, Spec: fresh})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Checksum != g.Checksum() {
				t.Fatal("column-assembled grid differs from direct render")
			}
			st := s.Stats()
			if st.ColdColumns != st0.ColdColumns {
				t.Fatalf("fresh extent marched %d columns despite a warm column cache", st.ColdColumns-st0.ColdColumns)
			}
			if st.ColHits == 0 {
				t.Fatal("column cache never hit")
			}

			// The inline path: an exact repeat and a narrower, shorter
			// window of the warm family are assembled on the calling
			// goroutine (no batch, no march) with the direct render's bits.
			serveDirect := func(spec render.Spec) (*Response, Stats) {
				t.Helper()
				g, _, err := m.Render(spec, 1, render.ScheduleDynamic)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := s.Serve(context.Background(), Request{Catalog: name, Spec: spec})
				if err != nil {
					t.Fatal(err)
				}
				if resp.Checksum != g.Checksum() || resp.Grid.Checksum() != g.Checksum() {
					t.Fatalf("%dx%d: served bits differ from direct render", spec.Nx, spec.Ny)
				}
				return resp, s.Stats()
			}
			narrow := fresh
			narrow.Nx, narrow.Ny = 20, 30
			for _, spec := range []render.Spec{fresh, narrow} {
				resp, after := serveDirect(spec)
				if !resp.CacheHit || after.Batches != st.Batches || after.ColdColumns != st.ColdColumns {
					t.Fatalf("%dx%d on a warm family was not served inline: hit=%v batches %d→%d",
						spec.Nx, spec.Ny, resp.CacheHit, st.Batches, after.Batches)
				}
				if after.CacheHits != st.CacheHits+1 {
					t.Fatalf("inline hit not counted: CacheHits %d→%d", st.CacheHits, after.CacheHits)
				}
				st = after
			}
			// A window straddling warm and cold columns must queue, and
			// march exactly the cold ones; the inline probe that fell
			// through must not have touched the hit counters.
			wide := fresh
			wide.Nx, wide.Ny = 52, 48
			resp, after := serveDirect(wide)
			if resp.CacheHit || after.Batches != st.Batches+1 {
				t.Fatalf("straddling window did not queue: hit=%v batches %d→%d", resp.CacheHit, st.Batches, after.Batches)
			}
			if cold := after.ColdColumns - st.ColdColumns; cold != 4 {
				t.Fatalf("straddling window marched %d columns, want the 4 cold ones", cold)
			}
			if hits, miss := after.ColHits-st.ColHits, after.ColMisses-st.ColMisses; hits != 48 || miss != 4 {
				t.Fatalf("straddling window moved column counters by %d hits / %d misses, want 48 / 4 (the batch's own)", hits, miss)
			}
			st = after
			t.Logf("%s: batches=%d batched=%d coalesced=%d marches=%d coldCols=%d colHits=%d",
				name, st.Batches, st.BatchedReqs, st.Coalesced, st.Marches, st.ColdColumns, st.ColHits)
		})
	}
}

// TestBatchLeaderCancelPromotesFollower is the chaos test for merged
// batch cancellation: the batch leader is cancelled mid-march, and the
// follower must still be served off the SAME shared march (no re-march,
// no lost work) with bit-identical output.
func TestBatchLeaderCancelPromotesFollower(t *testing.T) {
	pts := testPoints(2500, 7)
	s := New(Options{Workers: 1, QueueDepth: 8, BatchWindow: 150 * time.Millisecond, MaxBatch: 8})
	defer s.Close()
	if err := s.Register("halos", pts); err != nil {
		t.Fatal(err)
	}
	// Warm the mesh with a different family so build time doesn't skew
	// the choreography below.
	if _, err := s.Serve(context.Background(), Request{Catalog: "halos", Spec: testSpec(8, 0)}); err != nil {
		t.Fatal(err)
	}
	st0 := s.Stats()

	waitFor := func(what string, cond func(Stats) bool) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !cond(s.Stats()) {
			if time.Now().After(deadline) {
				t.Fatalf("%s never happened", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	family := testSpec(256, 1)
	family.Samples = 2
	leaderSpec := family // full extent
	followerSpec := family
	followerSpec.Nx, followerSpec.Ny = 192, 224

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderDone := make(chan error, 1)
	go func() {
		_, err := s.Serve(leaderCtx, Request{Catalog: "halos", Spec: leaderSpec})
		leaderDone <- err
	}()
	// The worker claims the leader (queue drains) and sits in its batch
	// window; the follower arrives inside the window.
	waitFor("leader claim", func(st Stats) bool { return st.QueueLen == 0 && st.Batches == st0.Batches })
	followerDone := make(chan taskResult, 1)
	go func() {
		resp, err := s.Serve(context.Background(), Request{Catalog: "halos", Spec: followerSpec})
		followerDone <- taskResult{resp: resp, err: err}
	}()
	// Batch executes (window expired, both members collected); cancel the
	// leader mid-march.
	waitFor("batch start", func(st Stats) bool { return st.Batches == st0.Batches+1 })
	time.Sleep(20 * time.Millisecond)
	cancelLeader()

	select {
	case err := <-leaderDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled leader returned %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("cancelled leader never returned")
	}
	var fr taskResult
	select {
	case fr = <-followerDone:
	case <-time.After(120 * time.Second):
		t.Fatal("follower lost after leader cancellation")
	}
	if fr.err != nil {
		t.Fatalf("follower: %v", fr.err)
	}
	want := directChecksum(t, pts, followerSpec)
	if fr.resp.Checksum != want || fr.resp.Grid.Checksum() != want {
		t.Fatal("promoted follower served wrong bits")
	}

	st := s.Stats()
	if st.Batches != st0.Batches+1 {
		t.Fatalf("batches = %d, want exactly one more than %d", st.Batches, st0.Batches)
	}
	if st.BatchedReqs != st0.BatchedReqs+2 || st.Coalesced != st0.Coalesced+1 {
		t.Fatalf("leader and follower not in one batch: %+v", st)
	}
	if st.Marches != st0.Marches+1 {
		t.Fatalf("marches = %d, want exactly one shared march more than %d (the march was lost or repeated)",
			st.Marches, st0.Marches)
	}
}

// TestChaosSingleFlightColdStorm: 16 concurrent identical requests for a
// cold family march it exactly once. Whichever way they interleave — one
// batch, a batch plus followers parked on the family lock, late arrivals
// assembled inline — the family lock is the single-flight.
func TestChaosSingleFlightColdStorm(t *testing.T) {
	pts := testPoints(600, 13)
	s := New(Options{Workers: 4, QueueDepth: 32})
	defer s.Close()
	if err := s.Register("halos", pts); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Serve(context.Background(), Request{Catalog: "halos", Spec: testSpec(8, 0)}); err != nil {
		t.Fatal(err)
	}
	st0 := s.Stats()
	spec := testSpec(96, 1)
	want := directChecksum(t, pts, spec)

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := s.Serve(context.Background(), Request{Catalog: "halos", Spec: spec})
			if err != nil {
				t.Error(err)
				return
			}
			if resp.Checksum != want || resp.Grid.Checksum() != want {
				t.Error("served bits differ from direct render")
			}
		}()
	}
	close(start)
	wg.Wait()
	st := s.Stats()
	if st.Marches != st0.Marches+1 || st.ColdColumns != st0.ColdColumns+uint64(spec.Nx) {
		t.Fatalf("16 identical cold requests: %d marches over %d columns, want 1 over %d",
			st.Marches-st0.Marches, st.ColdColumns-st0.ColdColumns, spec.Nx)
	}
}

// TestChaosCancelledLeaderFollowerMarches: a same-family request parked on
// the family lock behind a batch whose only member is cancelled does not
// inherit the failure — it is claimed next, marches itself, and is correct.
func TestChaosCancelledLeaderFollowerMarches(t *testing.T) {
	pts := testPoints(2500, 7)
	s := New(Options{Workers: 2, QueueDepth: 8})
	defer s.Close()
	if err := s.Register("halos", pts); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Serve(context.Background(), Request{Catalog: "halos", Spec: testSpec(8, 0)}); err != nil {
		t.Fatal(err)
	}
	st0 := s.Stats()
	waitFor := func(what string, cond func(Stats) bool) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !cond(s.Stats()) {
			if time.Now().After(deadline) {
				t.Fatalf("%s never happened", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	leaderSpec := testSpec(1024, 1)
	leaderSpec.Samples = 2
	followerSpec := leaderSpec
	followerSpec.Nx, followerSpec.Ny = 24, 24

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderDone := make(chan error, 1)
	go func() {
		_, err := s.Serve(leaderCtx, Request{Catalog: "halos", Spec: leaderSpec})
		leaderDone <- err
	}()
	// Batches rises only after the batch's membership is closed, so the
	// follower below cannot join the leader's batch.
	waitFor("leader march", func(st Stats) bool { return st.Batches == st0.Batches+1 })
	followerDone := make(chan taskResult, 1)
	go func() {
		resp, err := s.Serve(context.Background(), Request{Catalog: "halos", Spec: followerSpec})
		followerDone <- taskResult{resp: resp, err: err}
	}()
	// The second worker is idle, yet the follower stays queued: its family
	// is in flight.
	waitFor("follower parked", func(st Stats) bool { return st.QueueLen == 1 })
	cancelLeader()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader returned %v", err)
	}
	var fr taskResult
	select {
	case fr = <-followerDone:
	case <-time.After(60 * time.Second):
		t.Fatal("follower lost after its family's leader was cancelled")
	}
	if fr.err != nil {
		t.Fatalf("follower: %v", fr.err)
	}
	if want := directChecksum(t, pts, followerSpec); fr.resp.Checksum != want || fr.resp.Grid.Checksum() != want {
		t.Fatal("follower served wrong bits")
	}
	st := s.Stats()
	if fr.resp.CacheHit || st.ColdColumns != st0.ColdColumns+uint64(followerSpec.Nx) {
		t.Fatalf("follower did not march its own %d columns: hit=%v cold columns %d→%d",
			followerSpec.Nx, fr.resp.CacheHit, st0.ColdColumns, st.ColdColumns)
	}
	if st.Batches != st0.Batches+2 || st.Expired != st0.Expired+1 {
		t.Fatalf("want two batches and one expiry: %+v", st)
	}
}

// TestChaosMixedSoakNoLeak hammers one small service for two seconds from
// many goroutines mixing inline hits, batch assemblies, cold marches,
// evictions (the column budget holds about two of the six families),
// cancellations and sheds. Every served grid matches its spec's direct
// render, residency never exceeds the budget, and Close leaves no
// goroutine behind.
func TestChaosMixedSoakNoLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	pts := testPoints(400, 17)
	const budget = 2 * 32 * 32
	s := New(Options{Workers: 2, QueueDepth: 8, ColumnCacheCells: budget, MaxBatch: 4})
	if err := s.Register("halos", pts); err != nil {
		t.Fatal(err)
	}
	m := directMarcher(t, pts)
	var specs []render.Spec
	want := make(map[render.Spec]uint64)
	for seed := int64(0); seed < 6; seed++ {
		for _, e := range [][2]int{{32, 32}, {20, 28}, {28, 12}} {
			spec := testSpec(32, seed)
			spec.Nx, spec.Ny = e[0], e[1]
			g, _, err := m.Render(spec, 1, render.ScheduleDynamic)
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, spec)
			want[spec] = g.Checksum()
		}
	}

	stop := time.Now().Add(2 * time.Second)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			x := uint64(w + 1)
			for time.Now().Before(stop) {
				x = x*6364136223846793005 + 1442695040888963407
				spec := specs[int(x>>33)%len(specs)]
				ctx, cancel := context.WithCancel(context.Background())
				if x>>20&7 == 0 {
					time.AfterFunc(time.Duration(x>>40%200)*time.Microsecond, cancel)
				}
				resp, err := s.Serve(ctx, Request{Catalog: "halos", Spec: spec})
				switch {
				case err == nil:
					if resp.Checksum != want[spec] || resp.Grid.Checksum() != want[spec] {
						t.Errorf("%dx%d seed %d: served bits differ from direct render", spec.Nx, spec.Ny, spec.Seed)
					}
				case errors.Is(err, ErrOverloaded), ctx.Err() != nil:
				default:
					t.Errorf("unexpected error %v", err)
				}
				cancel()
				if st := s.Stats(); st.ColCells > budget {
					t.Errorf("residency %d cells exceeds the %d-cell budget", st.ColCells, budget)
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	t.Logf("soak: served=%d inline=%d batches=%d marches=%d colEvicted=%d shed=%d expired=%d",
		st.Served, st.CacheHits, st.Batches, st.Marches, st.ColEvicted, st.Shed, st.Expired)
	if st.CacheHits == 0 || st.ColdColumns == 0 || st.ColEvicted == 0 {
		t.Fatalf("soak failed to exercise inline hits, marches and eviction: %+v", st)
	}

	s.Close()
	waitNoLeak(t, baseline)
}

// TestServeOverlapStormSmoke drives the service with the fault package's
// overlap-shaped workload (80% of requests drawn from 3 hot spec
// families with varied extents) — the coalescing analogue of the PR 7
// overload smoke, wired into make serve-smoke. Every served grid must be
// bit-identical to a direct render; the storm must coalesce or hit
// columns; nothing may leak.
func TestServeOverlapStormSmoke(t *testing.T) {
	baseline := runtime.NumGoroutine()
	pts := testPoints(600, 21)
	inj := fault.New(fault.Plan{Seed: 99, OverlapProb: 0.8, OverlapFamilies: 3})
	s := New(Options{Workers: 2, QueueDepth: 64, BatchWindow: 2 * time.Millisecond, MaxBatch: 16})
	if err := s.Register("halos", pts); err != nil {
		t.Fatal(err)
	}
	m := directMarcher(t, pts)

	specFor := func(id uint64) render.Spec {
		fam, overlap := inj.OverlapVerdict(id)
		if !overlap {
			return testSpec(48, int64(1000+id)) // a family of its own
		}
		spec := testSpec(48, int64(fam))
		spec.Nx = 16 + int(id*7)%33
		spec.Ny = 16 + int(id*11)%33
		return spec
	}
	const storm = 96
	want := make(map[render.Spec]uint64)
	for id := uint64(0); id < storm; id++ {
		spec := specFor(id)
		if _, ok := want[spec]; ok {
			continue
		}
		g, _, err := m.Render(spec, 1, render.ScheduleDynamic)
		if err != nil {
			t.Fatal(err)
		}
		want[spec] = g.Checksum()
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		ok, shed int
	)
	start := make(chan struct{})
	for id := uint64(0); id < storm; id++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			<-start
			spec := specFor(id)
			resp, err := s.Serve(context.Background(), Request{Catalog: "halos", Spec: spec})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				if resp.Degraded {
					return // degraded grids are coarser family members, checked elsewhere
				}
				ok++
				if resp.Checksum != want[spec] || resp.Grid.Checksum() != want[spec] {
					t.Errorf("request %d: served bits differ from direct render", id)
				}
			case errors.Is(err, ErrOverloaded):
				shed++
			default:
				t.Errorf("request %d: unexpected error %v", id, err)
			}
		}(id)
	}
	close(start)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("overlap storm did not resolve")
	}

	st := s.Stats()
	t.Logf("storm=%d ok=%d shed=%d batches=%d coalesced=%d colHits=%d coldCols=%d maxBatch=%d",
		storm, ok, shed, st.Batches, st.Coalesced, st.ColHits, st.ColdColumns, st.MaxBatchSeen)
	if ok == 0 {
		t.Fatal("nothing was served")
	}
	if st.Coalesced == 0 && st.ColHits == 0 {
		t.Fatal("overlap storm neither coalesced a request nor hit the column cache")
	}
	if st.Shed != uint64(shed) {
		t.Fatalf("stats count %d shed, callers saw %d", st.Shed, shed)
	}
	checkConservation(t, st, storm)

	s.Close()
	waitNoLeak(t, baseline)
}

// TestColCache covers the column cache: prefix hits, short-entry misses,
// taller replacement, cell-budget eviction, per-catalog quota, poison
// detection, and nil-cache safety.
func TestColCache(t *testing.T) {
	fam := render.FamilyOf(testSpec(8, 1))
	key := func(cat string, col int) colKey { return colKey{Catalog: cat, Family: fam, Col: col} }
	colVals := func(n int, base float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = base + float64(i)
		}
		return v
	}

	c := newColCache(100, 0)
	c.put(key("a", 0), colVals(10, 1), 0, nil)
	if got, ok := c.get(key("a", 0), 10, 0); !ok || len(got) != 10 || got[9] != 10 {
		t.Fatal("full-height lookup failed")
	}
	if got, ok := c.get(key("a", 0), 6, 0); !ok || len(got) != 6 || got[5] != 6 {
		t.Fatal("prefix lookup failed")
	}
	if _, ok := c.get(key("a", 0), 11, 0); ok {
		t.Fatal("short entry served a taller request")
	}
	c.put(key("a", 0), colVals(20, 1), 0, nil) // taller replacement
	if got, ok := c.get(key("a", 0), 20, 0); !ok || len(got) != 20 {
		t.Fatal("taller replacement not served")
	}
	if st := c.stats(); st.Cells != 20 || st.Entries != 1 {
		t.Fatalf("replacement double-counted: %+v", st)
	}

	// Budget eviction: 100-cell budget, 20 resident + 5×20 more → the
	// least recently used column leaves and the budget holds; a hit
	// refreshes recency, so column 0 (touched after 1 went in) outlives 1.
	for i := 1; i <= 5; i++ {
		c.put(key("a", i), colVals(20, float64(i)), 0, nil)
		if i == 1 {
			c.get(key("a", 0), 20, 0)
		}
	}
	st := c.stats()
	if st.Cells != 100 || st.Entries != 5 || st.Evicted != 1 {
		t.Fatalf("want a full budget and one eviction: %+v", st)
	}
	if _, ok := c.get(key("a", 1), 1, 0); ok {
		t.Fatal("LRU column survived budget pressure")
	}
	if _, ok := c.get(key("a", 0), 1, 0); !ok {
		t.Fatal("recently used column evicted")
	}

	// Poison detection: corrupt a resident column in place.
	e := c.entries[key("a", 5)]
	e.vals[3] = math.Float64frombits(math.Float64bits(e.vals[3]) ^ 1)
	if _, ok := c.get(key("a", 5), 20, 0); ok {
		t.Fatal("poisoned column served")
	}
	if st := c.stats(); st.Poisoned != 1 {
		t.Fatalf("poisoned = %d, want 1", st.Poisoned)
	}

	// Per-catalog quota: catalog "h" capped at 40 cells out of 100; its
	// inserts under pressure evict its own columns, not catalog "cold"'s.
	q := newColCache(100, 40)
	for i := 0; i < 3; i++ {
		q.put(key("cold", i), colVals(20, float64(i)), 0, nil)
	}
	for i := 0; i < 8; i++ {
		q.put(key("h", i), colVals(20, float64(100+i)), 0, nil)
	}
	for i := 0; i < 3; i++ {
		if _, ok := q.get(key("cold", i), 20, 0); !ok {
			t.Fatalf("cold catalog's column %d evicted by the hot catalog", i)
		}
	}
	if qs := q.stats(); qs.Cells > 100 {
		t.Fatalf("quota cache over budget: %+v", qs)
	}
	if _, ok := q.get(key("h", 7), 20, 0); !ok {
		t.Fatal("hot catalog's newest column missing")
	}

	// nil cache (disabled) is safe.
	var nilCache *colCache
	nilCache.put(key("a", 0), colVals(4, 0), 0, nil)
	if _, ok := nilCache.get(key("a", 0), 4, 0); ok {
		t.Fatal("nil cache served a hit")
	}
	if st := nilCache.stats(); st != (colStats{}) {
		t.Fatal("nil cache has stats")
	}
}

var _ = grid.ChecksumBits // keep the import honest if assertions change
