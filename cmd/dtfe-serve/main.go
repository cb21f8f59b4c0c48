// Command dtfe-serve runs the resident field service end to end: it
// registers a particle catalog (read from -i, or synthesized), then
// drives an open-loop request load through the service and reports
// latency percentiles, throughput, cache hit rate, shed rate, and
// degraded serves. The offered load defaults to 2× the measured render
// capacity, so the default run demonstrates admission control and
// graceful degradation under overload.
//
// Usage:
//
//	dtfe-serve -particles 20000 -grid 64 -requests 2000
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"sync"
	"time"

	"godtfe/internal/fault"
	"godtfe/internal/fieldserve"
	"godtfe/internal/geom"
	"godtfe/internal/particleio"
	"godtfe/internal/render"
	"godtfe/internal/synth"
)

func main() {
	in := flag.String("i", "", "input particle file (default: synthesize -particles halo particles)")
	particles := flag.Int("particles", 20000, "synthetic catalog size when -i is empty")
	gridN := flag.Int("grid", 64, "request grid resolution (NxN)")
	specs := flag.Int("specs", 8, "distinct specs in the request mix (jitter seeds)")
	requests := flag.Int("requests", 2000, "total requests to offer")
	rate := flag.Float64("rate", 0, "offered load in requests/sec (0: 2x measured capacity)")
	workers := flag.Int("workers", 2, "serving workers")
	queue := flag.Int("queue", 0, "admission queue depth (0: 2x workers)")
	degrade := flag.Int("degrade", 2, "max degrade ladder depth")
	seed := flag.Int64("seed", 1, "seed for synthesis and fault injection")
	cancelProb := flag.Float64("cancel-prob", 0, "per-request probability of a mid-flight cancellation")
	slowProb := flag.Float64("slow-prob", 0, "per-request probability of a slow client")
	poisonProb := flag.Float64("poison-prob", 0, "per-fill probability of cache poisoning")
	batchWindow := flag.Duration("batch-window", 0, "batch leader wait for same-family followers (0: drain what's queued)")
	maxBatch := flag.Int("max-batch", 16, "max requests served by one shared march")
	colCache := flag.Int("col-cache", 1<<20, "column-cache budget in grid cells (negative disables)")
	updates := flag.Int("updates", 0, "incremental catalog updates (band churn) applied concurrently with the load")
	overlap := flag.Float64("overlap", 0, "fraction of requests drawn from hot coalescing families with varied window extents")
	overlapFams := flag.Int("overlap-families", 3, "hot family pool size for -overlap")
	flag.Parse()
	if err := checkFlags(*specs, *workers, *gridN, *overlap); err != nil {
		fmt.Fprintln(os.Stderr, "dtfe-serve:", err)
		flag.Usage()
		os.Exit(2)
	}

	var inj *fault.Injector
	if *cancelProb > 0 || *slowProb > 0 || *poisonProb > 0 || *overlap > 0 {
		inj = fault.New(fault.Plan{
			Seed:            *seed,
			SlowClientProb:  *slowProb,
			SlowClientDelay: 5 * time.Millisecond,
			CancelProb:      *cancelProb,
			CancelAfter:     2 * time.Millisecond,
			PoisonProb:      *poisonProb,
			OverlapProb:     *overlap,
			OverlapFamilies: *overlapFams,
		})
	}

	run(*in, *particles, *gridN, *specs, *requests, *rate,
		*workers, *queue, *degrade, *seed, *updates, inj, fieldserve.Options{
			BatchWindow:      *batchWindow,
			MaxBatch:         *maxBatch,
			ColumnCacheCells: *colCache,
		})
}

// checkFlags rejects the flag values the load generator cannot run with:
// the spec mix is indexed modulo -specs, the offered rate is derived from
// -workers, and an -overlap window spans half to all of -grid on each axis,
// which is no cells at all when -grid is 1.
func checkFlags(specs, workers, gridN int, overlap float64) error {
	switch {
	case specs < 1:
		return fmt.Errorf("-specs %d: need at least one spec", specs)
	case workers < 1:
		return fmt.Errorf("-workers %d: need at least one worker", workers)
	case gridN < 2 && overlap > 0:
		return fmt.Errorf("-grid %d: -overlap windows need a grid of at least 2", gridN)
	}
	return nil
}

func run(in string, particles, gridN, specPool, requests int, rate float64,
	workers, queue, degrade int, seed int64, updates int, inj *fault.Injector, copt fieldserve.Options) {
	var pts []geom.Vec3
	if in != "" {
		var err error
		pts, _, err = particleio.ReadAllValidated(in, particleio.ValidateOptions{})
		if err != nil {
			log.Fatalf("read: %v", err)
		}
	} else {
		box := geom.AABB{Min: geom.Vec3{}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
		pts = synth.HaloSet(particles, box, synth.DefaultHaloSpec(), seed)
	}
	box := geom.BoundsOf(pts)
	sz := box.Size()
	cell := sz.X / float64(gridN)
	baseSpec := render.Spec{
		Min: geom.Vec2{X: box.Min.X, Y: box.Min.Y},
		Nx:  gridN, Ny: gridN, Cell: cell,
		Samples: 1,
	}

	opt := copt
	opt.Workers, opt.QueueDepth = workers, queue
	opt.MaxDegrade, opt.Fault = degrade, inj
	s := fieldserve.New(opt)
	defer s.Close()
	if err := s.Register("catalog", pts); err != nil {
		log.Fatalf("register: %v", err)
	}

	// The spec mix: jitter seeds rotate through specPool families. With
	// -overlap, the injector redirects that fraction of requests at a few
	// hot families with varied window extents — the coalescing workload.
	specAt := func(i int) render.Spec {
		sp := baseSpec
		sp.Seed = int64(i % specPool)
		if inj != nil {
			if fam, hot := inj.OverlapVerdict(uint64(i)); hot {
				sp.Seed = int64(specPool + fam)
				sp.Nx = gridN/2 + (i*7)%(gridN/2+1)
				sp.Ny = gridN/2 + (i*11)%(gridN/2+1)
			}
		}
		return sp
	}

	// Calibrate: first request pays the mesh build; second measures a
	// cold render, which sets the default offered load at 2× capacity.
	t0 := time.Now()
	if _, err := s.Serve(context.Background(), fieldserve.Request{Catalog: "catalog", Spec: specAt(0)}); err != nil {
		log.Fatalf("build: %v", err)
	}
	buildTime := time.Since(t0)
	t0 = time.Now()
	if _, err := s.Serve(context.Background(), fieldserve.Request{Catalog: "catalog", Spec: specAt(1)}); err != nil {
		log.Fatalf("calibrate: %v", err)
	}
	renderTime := time.Since(t0)
	if rate <= 0 {
		rate = 2 * float64(workers) / renderTime.Seconds()
	}
	fmt.Printf("catalog: %d particles, build+first render %v, cold render %v\n",
		len(pts), buildTime.Round(time.Millisecond), renderTime.Round(time.Microsecond))
	fmt.Printf("offering %d requests at %.0f/s (%d workers, %d specs of %dx%d)\n",
		requests, rate, workers, specPool, gridN, gridN)

	// Open loop: arrivals on a fixed clock, regardless of completions.
	var (
		wg                             sync.WaitGroup
		mu                             sync.Mutex
		lats                           []time.Duration
		served, shed, degraded, failed int
		cancelled                      int
	)
	interarrival := time.Duration(float64(time.Second) / rate)

	// Concurrent updater: incremental band-churn deltas land while the
	// load runs, exercising epoch publication and cache invalidation
	// under live traffic.
	var uwg sync.WaitGroup
	if updates > 0 {
		gap := time.Duration(requests) * interarrival / time.Duration(updates+1)
		uwg.Add(1)
		go func() {
			defer uwg.Done()
			cur := pts
			rng := geomRand(seed + 7)
			for u := 0; u < updates; u++ {
				time.Sleep(gap)
				d := bandChurnDelta(cur, rng)
				st, err := s.Update(context.Background(), "catalog", d)
				if err != nil {
					log.Fatalf("update %d: %v", u, err)
				}
				cur = applyDeltaToPoints(cur, d)
				_ = st
			}
		}()
	}

	start := time.Now()
	for i := 0; i < requests; i++ {
		next := start.Add(time.Duration(i) * interarrival)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			if inj != nil {
				v := inj.RequestVerdict(uint64(i))
				if v.SlowClient {
					time.Sleep(v.Delay)
				}
				if v.Cancel {
					cctx, cancel := context.WithTimeout(ctx, v.CancelAfter)
					defer cancel()
					ctx = cctx
				}
			}
			t := time.Now()
			resp, err := s.Serve(ctx, fieldserve.Request{Catalog: "catalog", Spec: specAt(i)})
			el := time.Since(t)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil && resp.Degraded:
				degraded++
				served++
				lats = append(lats, el)
			case err == nil:
				served++
				lats = append(lats, el)
			case errors.Is(err, fieldserve.ErrOverloaded):
				shed++
			case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
				cancelled++
			default:
				failed++
			}
		}(i)
	}
	wg.Wait()
	uwg.Wait()
	wall := time.Since(start)

	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	pct := func(p float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		i := int(p * float64(len(lats)))
		if i >= len(lats) {
			i = len(lats) - 1
		}
		return lats[i]
	}
	st := s.Stats()
	fmt.Printf("wall %v: served %d (%.1f/s), shed %d (rate %.3f), degraded %d, cancelled %d, failed %d\n",
		wall.Round(time.Millisecond), served, float64(served)/wall.Seconds(),
		shed, float64(shed)/float64(requests), degraded, cancelled, failed)
	fmt.Printf("latency p50 %v p99 %v max %v\n",
		pct(0.50).Round(time.Microsecond), pct(0.99).Round(time.Microsecond), pct(1).Round(time.Microsecond))
	fmt.Printf("served without queueing: %d assembled inline from resident columns; %d builds\n",
		st.CacheHits, st.Builds)
	avgBatch := 0.0
	if st.Batches > 0 {
		avgBatch = float64(st.BatchedReqs) / float64(st.Batches)
	}
	fmt.Printf("batching: %d batches (avg %.2f, max %d), %d coalesced, %d marches, %d cold columns\n",
		st.Batches, avgBatch, st.MaxBatchSeen, st.Coalesced, st.Marches, st.ColdColumns)
	fmt.Printf("columns: %d hits, %d misses, %d evicted, %d poisoned, %d resident (%d cells)\n",
		st.ColHits, st.ColMisses, st.ColEvicted, st.ColPoisoned, st.ColEntries, st.ColCells)
	fmt.Printf("updates: %d applied (epoch %d), %d dirty columns evicted\n",
		st.Updates, st.Epochs, st.DirtyColumns)
	fmt.Printf("mesh: %d resident bytes (%.0f B/particle)\n",
		st.ResidentBytes, float64(st.ResidentBytes)/float64(len(pts)))
	if failed > 0 {
		log.Fatalf("%d requests failed unexpectedly", failed)
	}
}

// geomRand is a tiny deterministic LCG for the updater's churn (avoids
// pulling math/rand state through the flags).
func geomRand(seed int64) func() float64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + 1
	return func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x>>11) / float64(1<<53)
	}
}

// bandChurnDelta removes up to 8 particles from a narrow interior x-band
// and adds the same count back into the band, keeping the bounding box
// fixed so updates stay on the incremental (non-DirtyAll) path. The scan
// for particles to remove starts at a random index and wraps around:
// from index 0 every update took the band's first eight survivors, and
// repeated updates ate their way through the catalog's first halo.
func bandChurnDelta(pts []geom.Vec3, rnd func() float64) fieldserve.Delta {
	b := geom.BoundsOf(pts)
	cx := 0.5 * (b.Min.X + b.Max.X)
	band := 0.08 * (b.Max.X - b.Min.X)
	var d fieldserve.Delta
	off := int(rnd() * float64(len(pts)))
	for k := range pts {
		i := (off + k) % len(pts)
		p := pts[i]
		interior := p.X > b.Min.X && p.X < b.Max.X && p.Y > b.Min.Y && p.Y < b.Max.Y && p.Z > b.Min.Z && p.Z < b.Max.Z
		if interior && p.X > cx-band && p.X < cx+band {
			d.Remove = append(d.Remove, i)
			if len(d.Remove) == 8 {
				break
			}
		}
	}
	for range d.Remove {
		d.Add = append(d.Add, geom.Vec3{
			X: cx + band*(2*rnd()-1),
			Y: b.Min.Y + (0.1+0.8*rnd())*(b.Max.Y-b.Min.Y),
			Z: b.Min.Z + (0.1+0.8*rnd())*(b.Max.Z-b.Min.Z),
		})
	}
	return d
}

// applyDeltaToPoints mirrors the delta textually so the updater can
// build the next delta against the current catalog state.
func applyDeltaToPoints(pts []geom.Vec3, d fieldserve.Delta) []geom.Vec3 {
	rm := make(map[int]bool, len(d.Remove))
	for _, r := range d.Remove {
		rm[r] = true
	}
	out := make([]geom.Vec3, 0, len(pts)-len(rm)+len(d.Add))
	for i, p := range pts {
		if !rm[i] {
			out = append(out, p)
		}
	}
	return append(out, d.Add...)
}
