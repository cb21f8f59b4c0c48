package fieldserve

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"godtfe/internal/fault"
	"godtfe/internal/render"
)

// BenchmarkFieldServeColdBuild measures the full cold path: service
// creation, catalog registration, mesh build, and the first render. The
// mesh-build share of the wall time is reported separately (build-ns/op,
// from Stats.BuildNs) so build changes are visible even when render time
// dominates.
func BenchmarkFieldServeColdBuild(b *testing.B) {
	pts := testPoints(400, 31)
	spec := testSpec(16, 1)
	b.ReportAllocs()
	var buildNs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(Options{Workers: 1})
		if err := s.Register("halos", pts); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Serve(context.Background(), Request{Catalog: "halos", Spec: spec}); err != nil {
			b.Fatal(err)
		}
		buildNs += s.Stats().BuildNs
		s.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(buildNs)/float64(b.N), "build-ns/op")
}

// BenchmarkFieldServeCacheHit measures the warm path: an exact repeat
// assembled inline from resident columns, including their checksum
// re-verification and the response checksum.
func BenchmarkFieldServeCacheHit(b *testing.B) {
	s := New(Options{Workers: 1})
	defer s.Close()
	if err := s.Register("halos", testPoints(400, 31)); err != nil {
		b.Fatal(err)
	}
	req := Request{Catalog: "halos", Spec: testSpec(32, 1)}
	if _, err := s.Serve(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := s.Serve(context.Background(), req)
		if err != nil || !resp.CacheHit {
			b.Fatalf("warm serve: hit=%v err=%v", resp != nil && resp.CacheHit, err)
		}
	}
}

// BenchmarkFieldServeShed measures the shed path: queue full, degrade
// ladder cold, request rejected with the typed overload error.
func BenchmarkFieldServeShed(b *testing.B) {
	pts := testPoints(2500, 31)
	s := New(Options{Workers: 1, QueueDepth: 1})
	defer s.Close()
	if err := s.Register("halos", pts); err != nil {
		b.Fatal(err)
	}
	// Warm the mesh, then wedge the worker and the queue slot with huge
	// renders held open until the benchmark ends.
	if _, err := s.Serve(context.Background(), Request{Catalog: "halos", Spec: testSpec(8, 0)}); err != nil {
		b.Fatal(err)
	}
	hold, release := context.WithCancel(context.Background())
	defer release()
	st0 := s.Stats()
	// The first render must be on the worker before the second is sent, or
	// the second finds the one queue slot taken and is shed.
	for i, wedged := range []func(Stats) bool{
		func(st Stats) bool { return st.Batches > st0.Batches },
		func(st Stats) bool { return st.QueueLen == 1 },
	} {
		big := testSpec(1024, int64(50+i))
		big.Samples = 4
		go s.Serve(hold, Request{Catalog: "halos", Spec: big}) //nolint:errcheck
		deadline := time.Now().Add(10 * time.Second)
		for !wedged(s.Stats()) {
			if time.Now().After(deadline) {
				b.Fatal("could not wedge the service")
			}
			time.Sleep(time.Millisecond)
		}
	}
	req := Request{Catalog: "halos", Spec: testSpec(64, 99)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := s.Serve(context.Background(), req)
		if !errors.Is(err, ErrOverloaded) {
			b.Fatalf("wedged serve returned %v, want overload", err)
		}
	}
}

// BenchmarkFieldServeCoalesce measures the shared-march batch path: each
// iteration bursts 8 concurrent same-family requests with different
// window extents at a cold family. Coalescing serves the burst with one
// union march.
func BenchmarkFieldServeCoalesce(b *testing.B) {
	s := newService(Options{Workers: 2, QueueDepth: 32}, hooks{batchWindow: 500 * time.Microsecond})
	defer s.Close()
	if err := s.Register("halos", testPoints(400, 31)); err != nil {
		b.Fatal(err)
	}
	extents := [][2]int{{64, 64}, {48, 56}, {56, 40}, {32, 64}, {40, 48}, {64, 24}, {24, 56}, {48, 32}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := testSpec(64, int64(1000+i)) // fresh family every iteration
		var wg sync.WaitGroup
		for _, e := range extents {
			spec := base
			spec.Nx, spec.Ny = e[0], e[1]
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := s.Serve(context.Background(), Request{Catalog: "halos", Spec: spec}); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	st := s.Stats()
	b.ReportMetric(float64(st.Marches)/float64(b.N), "marches/op")
	b.ReportMetric(float64(st.Coalesced)/float64(b.N), "coalesced/op")
}

// BenchmarkFieldServeColumnCacheHit measures the other shape of inline
// hit: a narrower window assembled from prefixes of taller cached columns.
// The family's columns are warm and no marching happens.
func BenchmarkFieldServeColumnCacheHit(b *testing.B) {
	s := New(Options{Workers: 1})
	defer s.Close()
	if err := s.Register("halos", testPoints(400, 31)); err != nil {
		b.Fatal(err)
	}
	// Warm every column of the family at full height.
	warm := Request{Catalog: "halos", Spec: testSpec(48, 1)}
	if _, err := s.Serve(context.Background(), warm); err != nil {
		b.Fatal(err)
	}
	req := warm
	req.Spec.Nx, req.Spec.Ny = 40, 32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Serve(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := s.Stats()
	b.ReportMetric(float64(st.ColdColumns)/float64(b.N), "cold-cols/op")
}

// BenchmarkFieldServeOverlapStorm measures end-to-end served throughput
// on the PR's acceptance workload: bursts shaped by the fault package's
// overlap verdicts — 80% of requests draw window extents from 3
// persistent hot families, 20% are windows into one-off families. All
// extents churn with the iteration, so exact repeats are rare — absorbing
// the storm takes the shared marches and the column cache.
func BenchmarkFieldServeOverlapStorm(b *testing.B) {
	inj := fault.New(fault.Plan{Seed: 99, OverlapProb: 0.8, OverlapFamilies: 3})
	s := New(Options{Workers: 2, QueueDepth: 64})
	defer s.Close()
	if err := s.Register("halos", testPoints(400, 31)); err != nil {
		b.Fatal(err)
	}
	const burst = 32
	var served, shed uint64
	var mu sync.Mutex
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for id := uint64(0); id < burst; id++ {
			spec := testSpec(48, 0)
			spec.Samples = 2
			churn := uint64(i)*burst + id
			if fam, overlap := inj.OverlapVerdict(id); overlap {
				spec.Seed = int64(fam)
				spec.Nx = 16 + int(churn*7)%33
				spec.Ny = 16 + int(churn*11)%33
			} else {
				spec.Seed = int64(1_000_000+i)*64 + int64(id)
				spec.Nx = 16 + int(churn*13)%33
				spec.Ny = 16 + int(churn*17)%33
			}
			wg.Add(1)
			go func(req Request) {
				defer wg.Done()
				_, err := s.Serve(context.Background(), req)
				mu.Lock()
				switch {
				case err == nil:
					served++
				case errors.Is(err, ErrOverloaded):
					shed++
				default:
					b.Error(err)
				}
				mu.Unlock()
			}(Request{Catalog: "halos", Spec: spec})
		}
		wg.Wait()
	}
	b.StopTimer()
	mu.Lock()
	defer mu.Unlock()
	b.ReportMetric(float64(served)/float64(b.N), "served/op")
	b.ReportMetric(float64(shed)/float64(b.N), "shed/op")
}

// BenchmarkColumnCacheZipf is the column cache's layer benchmark: colCache
// alone under the serve_overlap request shape, with no mesh and no march.
// One op is zipfColdShare's whole 20 000-request stream; cold/req_col is
// its result, and heap-B/col and book-B/col what the cache it leaves holds
// per resident column: in all, and beyond the column's own cells.
func BenchmarkColumnCacheZipf(b *testing.B) {
	var share float64
	var c *colCache
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		share, c = zipfColdShare()
	}
	b.StopTimer()
	var held, gone runtime.MemStats
	st := c.stats()
	runtime.GC()
	runtime.ReadMemStats(&held)
	runtime.KeepAlive(c)
	c = nil
	runtime.GC()
	runtime.ReadMemStats(&gone)
	heap := float64(held.HeapAlloc) - float64(gone.HeapAlloc)
	b.ReportMetric(share, "cold/req_col")
	b.ReportMetric(heap/float64(st.Entries), "heap-B/col")
	b.ReportMetric((heap-8*float64(st.Cells))/float64(st.Entries), "book-B/col")
}

// zipfColdShare replays a fixed-seed request stream against a colCache at
// the service's default budget: 768 families drawn Zipf(1), each request a
// window of Nx in [32, 128] columns by 32 rows from its family's column 0.
// Like buildUnion, a request holds its family's id, gets each of its
// columns and puts every miss. It returns the share of requested columns
// that missed (and would have been marched) over the last 15 000 requests,
// after 5 000 that warm the cache, and the cache. The share is
// deterministic.
func zipfColdShare() (float64, *colCache) {
	const (
		families, nxMin, nxMax, ny = 768, 32, 128, 32
		requests, warmup           = 20000, 5000
	)
	fams := make([]render.Spec, families)
	for f := range fams {
		fams[f] = render.FamilyOf(testSpec(nxMax, int64(1_000_000+f)))
	}
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.0001, 1, families-1)
	c := newColCache(defaultColumnCacheCells)
	var cold, asked int
	for r := 0; r < requests; r++ {
		f := c.intern(Key{Catalog: "halos", Spec: fams[zipf.Uint64()]})
		nx := nxMin + rng.Intn(nxMax-nxMin+1)
		for col := 0; col < nx; col++ {
			if _, ok := c.getCol(f, col, ny, 0); !ok {
				c.putCol(f, col, make([]float64, ny), 0, nil)
				if r >= warmup {
					cold++
				}
			}
		}
		c.release(f)
		if r >= warmup {
			asked += nx
		}
	}
	return float64(cold) / float64(asked), c
}
