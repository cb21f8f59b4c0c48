package fieldserve

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"godtfe/internal/delaunay"
	"godtfe/internal/fault"
	"godtfe/internal/geom"
	"godtfe/internal/grid"
	"godtfe/internal/render"
)

// applyDeltaOracle is the textual edit Update's mesh must agree with:
// drop the removed indices, append the adds.
func applyDeltaOracle(pts []geom.Vec3, d delaunay.Delta) []geom.Vec3 {
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

// exactLattice builds an m³ lattice with exactly representable planes.
// Every finite tet of its Delaunay triangulation spans at most one
// lattice cell (exactly coplanar sheets cannot form finite tets), so a
// narrow churn band provably leaves most render columns clean — the
// non-vacuous setting for the cache-survival properties below.
func exactLattice(m int) []geom.Vec3 {
	var pts []geom.Vec3
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			for k := 0; k < m; k++ {
				pts = append(pts, geom.Vec3{
					X: float64(i) / float64(m-1),
					Y: float64(j) / float64(m-1),
					Z: float64(k) / float64(m-1),
				})
			}
		}
	}
	return pts
}

// bandChurn builds a delta confined to a narrow x-band around the box
// center, interior in every axis so the bounding box (and the marcher's
// derived epsilon) is unchanged.
func bandChurn(pts []geom.Vec3, seed int64) delaunay.Delta {
	rng := rand.New(rand.NewSource(seed))
	b := geom.BoundsOf(pts)
	cx := 0.5 * (b.Min.X + b.Max.X)
	band := 0.08 * (b.Max.X - b.Min.X)
	var d delaunay.Delta
	for i, p := range pts {
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
			X: cx + band*(2*rng.Float64()-1),
			Y: b.Min.Y + (0.1+0.8*rng.Float64())*(b.Max.Y-b.Min.Y),
			Z: b.Min.Z + (0.1+0.8*rng.Float64())*(b.Max.Z-b.Min.Z),
		})
	}
	return d
}

// Update publishes a new mesh epoch whose renders are bit-identical to a
// from-scratch service over the edited catalog, and the update counters
// advance. Also covers the pre-build textual path: an update landing
// before the lazy mesh build edits the particle list directly.
func TestUpdateBitIdentity(t *testing.T) {
	pts := testPoints(500, 11)
	spec := testSpec(24, 1)

	s := New(Options{Workers: 2})
	defer s.Close()
	if err := s.Register("halos", pts); err != nil {
		t.Fatal(err)
	}

	// Pre-build update: no mesh yet, so the particle list itself moves.
	pre := delaunay.Delta{Remove: []int{0, 1}, Add: []geom.Vec3{{X: 0.5, Y: 0.5, Z: 0.5}}}
	st, err := s.Update(context.Background(), "halos", pre)
	if err != nil {
		t.Fatal(err)
	}
	if !st.DirtyAll {
		t.Fatalf("pre-build update must report DirtyAll: %+v", st)
	}
	cur := applyDeltaOracle(pts, pre)

	resp, err := s.Serve(context.Background(), Request{Catalog: "halos", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if want := directChecksum(t, cur, spec); resp.Checksum != want {
		t.Fatalf("post-prebuild-update render %#x, direct render of edited points %#x", resp.Checksum, want)
	}

	// Post-build update: incremental ApplyDelta plus cache sweeps.
	post := bandChurn(cur, 7)
	if _, err := s.Update(context.Background(), "halos", post); err != nil {
		t.Fatal(err)
	}
	cur = applyDeltaOracle(cur, post)
	resp, err = s.Serve(context.Background(), Request{Catalog: "halos", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if want := directChecksum(t, cur, spec); resp.Checksum != want {
		t.Fatalf("post-update render %#x, direct render of edited points %#x", resp.Checksum, want)
	}

	stats := s.Stats()
	if stats.Updates != 2 {
		t.Fatalf("Updates = %d, want 2", stats.Updates)
	}
	if stats.Epochs != 1 {
		t.Fatalf("Epochs = %d, want 1 (one post-build update)", stats.Epochs)
	}
}

// Property (satellite): after an update, every column-cache entry for a
// provably clean column survives, carries the new epoch, and passes
// hit-time checksum verification with its exact pre-update bits; every
// dirty column is evicted, so a stale column can never be served. A window
// of clean survivors is served inline with the new epoch's bits, a window
// touching a dirty column is not, and the follow-up request re-marches only
// the dirty columns.
func TestUpdateColumnCacheSurvival(t *testing.T) {
	pts := exactLattice(10)
	spec := testSpec(48, 1)

	s := New(Options{Workers: 1})
	defer s.Close()
	if err := s.Register("lat", pts); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Serve(context.Background(), Request{Catalog: "lat", Spec: spec}); err != nil {
		t.Fatal(err)
	}

	// Snapshot the warmed column cache.
	fam := render.FamilyOf(spec)
	preSum := make(map[int]uint64)
	s.colcache.mu.Lock()
	for k, e := range s.colcache.entries {
		if k.Family == fam {
			preSum[k.Col] = e.sum
		}
	}
	s.colcache.mu.Unlock()
	if len(preSum) != spec.Nx {
		t.Fatalf("warm-up cached %d/%d columns", len(preSum), spec.Nx)
	}

	d := bandChurn(pts, 19)
	st, err := s.Update(context.Background(), "lat", d)
	if err != nil {
		t.Fatal(err)
	}
	if st.DirtyAll {
		t.Fatalf("interior band churn must not dirty everything: %+v", st)
	}

	dirty := make(map[int]bool)
	for i := 0; i < spec.Nx; i++ {
		lo := fam.Min.X + float64(i)*fam.Cell
		if st.DirtyIntersects(lo, lo+fam.Cell) {
			dirty[i] = true
		}
	}
	if len(dirty) == 0 || len(dirty) == spec.Nx {
		t.Fatalf("degenerate dirty set %d/%d columns: %+v", len(dirty), spec.Nx, st)
	}

	s.colcache.mu.Lock()
	for i := 0; i < spec.Nx; i++ {
		e, ok := s.colcache.entries[colKey{Catalog: "lat", Family: fam, Col: i}]
		if dirty[i] {
			if ok {
				s.colcache.mu.Unlock()
				t.Fatalf("dirty column %d survived the update sweep", i)
			}
			continue
		}
		if !ok {
			s.colcache.mu.Unlock()
			t.Fatalf("clean column %d was evicted by the update sweep", i)
		}
		if e.epoch != 1 {
			s.colcache.mu.Unlock()
			t.Fatalf("clean column %d not re-tagged: epoch %d, want 1", i, e.epoch)
		}
		if grid.ChecksumBits(e.vals) != e.sum || e.sum != preSum[i] {
			s.colcache.mu.Unlock()
			t.Fatalf("clean column %d bits changed across the update", i)
		}
	}
	s.colcache.mu.Unlock()

	if got := s.Stats().DirtyColumns; got != uint64(len(dirty)) {
		t.Fatalf("DirtyColumns = %d, want %d", got, len(dirty))
	}

	// The inline path after the update: the window left of the first dirty
	// column is all clean survivors and is assembled on the calling
	// goroutine with the new epoch's oracle bits; one column wider touches
	// a dirty column, so the resident-only lookup refuses it without
	// moving a hit or miss counter.
	edited := applyDeltaOracle(pts, d)
	firstDirty := 0
	for !dirty[firstDirty] {
		firstDirty++
	}
	pre := s.Stats()
	clean := spec
	clean.Nx = firstDirty
	resp, err := s.Serve(context.Background(), Request{Catalog: "lat", Spec: clean})
	if err != nil {
		t.Fatal(err)
	}
	if want := directChecksum(t, edited, clean); resp.Checksum != want || resp.Grid.Checksum() != want {
		t.Fatalf("inline window of clean survivors %#x, fresh-mesh render %#x", resp.Checksum, want)
	}
	if st := s.Stats(); !resp.CacheHit || st.Batches != pre.Batches || st.ColHits != pre.ColHits+uint64(firstDirty) {
		t.Fatalf("clean-survivor window was not served inline: hit=%v batches %d→%d", resp.CacheHit, pre.Batches, st.Batches)
	}
	touching := spec
	touching.Nx = firstDirty + 1
	s.mu.RLock()
	cat := s.catalogs["lat"]
	s.mu.RUnlock()
	pre = s.Stats()
	if r := s.resident(cat, Key{Catalog: "lat", Spec: touching}); r != nil {
		t.Fatal("window touching a dirty column was served inline")
	}
	if st := s.Stats(); st.ColHits != pre.ColHits || st.ColMisses != pre.ColMisses {
		t.Fatal("a refused inline probe moved the column hit/miss counters")
	}

	// The re-request marches exactly the dirty columns and serves bits
	// identical to a fresh mesh over the edited catalog.
	resp, err = s.Serve(context.Background(), Request{Catalog: "lat", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if want := directChecksum(t, edited, spec); resp.Checksum != want {
		t.Fatalf("post-update render %#x, fresh-mesh render %#x", resp.Checksum, want)
	}
	post := s.Stats()
	if marched := post.ColdColumns - pre.ColdColumns; marched != uint64(len(dirty)) {
		t.Fatalf("re-request marched %d columns, want exactly the %d dirty ones", marched, len(dirty))
	}
	if hits := post.ColHits - pre.ColHits; hits != uint64(spec.Nx-len(dirty)) {
		t.Fatalf("re-request reused %d columns, want the %d clean survivors", hits, spec.Nx-len(dirty))
	}
}

// Chaos (satellite): renders racing concurrent updates, with injected
// mid-march cancellations, must each either fail with their own
// context's error or serve a grid bit-identical to SOME single epoch's
// oracle render — never a mix of epochs, and never a torn read of a
// mesh an update is superseding (old views stay valid until their last
// reader drains; -race patrols the copy-on-write claim).
func TestChaosUpdateRenderInterleave(t *testing.T) {
	pts := testPoints(400, 23)
	const epochs = 4

	// Precompute every epoch's point set and oracle checksums for the
	// two same-family windows the load uses.
	deltas := make([]delaunay.Delta, epochs)
	states := [][]geom.Vec3{pts}
	for e := 0; e < epochs; e++ {
		deltas[e] = bandChurn(states[e], int64(100+e))
		states = append(states, applyDeltaOracle(states[e], deltas[e]))
	}
	big := testSpec(32, 1)
	small := big
	small.Nx, small.Ny = 24, 24
	oracle := make(map[uint64]bool)
	for _, st := range states {
		oracle[directChecksum(t, st, big)] = true
		oracle[directChecksum(t, st, small)] = true
	}

	inj := fault.New(fault.Plan{Seed: 5, CancelProb: 0.4, CancelAfter: 50 * time.Microsecond})
	s := New(Options{Workers: 2, QueueDepth: 64, Fault: inj})
	defer s.Close()
	if err := s.Register("halos", pts); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	var served []uint64
	var reqID uint64

	// Updater: land the epochs with a small gap so renders interleave
	// at many points of the update pipeline.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for e := 0; e < epochs; e++ {
			if _, err := s.Update(context.Background(), "halos", deltas[e]); err != nil {
				t.Errorf("update %d: %v", e, err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				spec := big
				if (g+i)%2 == 1 {
					spec = small
				}
				ctx, cancel := context.WithCancel(context.Background())
				mu.Lock()
				reqID++
				rf := inj.RequestVerdict(reqID)
				mu.Unlock()
				if rf.Cancel {
					timer := time.AfterFunc(rf.CancelAfter, cancel)
					defer timer.Stop()
				}
				resp, err := s.Serve(ctx, Request{Catalog: "halos", Spec: spec})
				if err == nil {
					mu.Lock()
					served = append(served, resp.Checksum)
					mu.Unlock()
				} else if ctx.Err() == nil {
					t.Errorf("render failed without its context dying: %v", err)
				}
				cancel()
			}
		}(g)
	}
	wg.Wait()

	if len(served) == 0 {
		t.Fatal("chaos run served nothing; cancellation drowned the test")
	}
	for _, sum := range served {
		if !oracle[sum] {
			t.Fatalf("served checksum %#x matches no epoch's oracle render (epoch mixing)", sum)
		}
	}
	t.Logf("served %d/%d renders across %d epochs, %d inline, %d dirty columns",
		len(served), 4*30, s.Stats().Epochs+1, s.Stats().CacheHits, s.Stats().DirtyColumns)
}
