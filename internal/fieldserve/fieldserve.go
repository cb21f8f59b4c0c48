package fieldserve

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"godtfe/internal/delaunay"
	"godtfe/internal/dtfe"
	"godtfe/internal/fault"
	"godtfe/internal/geom"
	"godtfe/internal/geomerr"
	"godtfe/internal/grid"
	"godtfe/internal/render"
)

// Options configures a Service. The zero value gets sane defaults from
// New.
type Options struct {
	// Workers is the number of serving goroutines draining the admission
	// queue (default 2). Each worker leads one batch at a time.
	Workers int
	// QueueDepth bounds the admission queue (default 2×Workers). A
	// request arriving at a full queue is degraded or shed, never
	// queued unboundedly.
	QueueDepth int
	// MaxDegrade is the deepest coarsening level the degrade ladder
	// tries before shedding (default 2; negative disables degradation).
	MaxDegrade int
	// RenderWorkers is the marching parallelism per render (default 1:
	// concurrency comes from serving many requests, not one).
	RenderWorkers int

	// BatchWindow is how long a batch leader waits after claiming its
	// first request for same-family followers to arrive before marching
	// (default 0: drain whatever is already queued without waiting —
	// under load, queueing delay forms batches on its own).
	BatchWindow time.Duration
	// MaxBatch bounds how many requests one shared march may serve
	// (default 16; negative means 1, i.e. no batching beyond the leader).
	MaxBatch int
	// ColumnCacheCells budgets the column cache — the service's only
	// cache — in grid cells (default 1<<20 ≈ 8 MB of float64s; 0 uses the
	// default, negative disables caching).
	ColumnCacheCells int

	// Fault optionally injects request-level faults; the service itself
	// only consults the cache-poisoning decision (slow clients and
	// cancellations are the load generator's side of the contract).
	Fault *fault.Injector
}

// catalogCacheShare is the fraction of the column cache one catalog may
// occupy before eviction pressure turns on it (its own LRU columns are
// evicted instead of other catalogs'). The quota is elastic: with free
// space a catalog may exceed its share.
const catalogCacheShare = 0.5

// Request names a registered catalog and the grid to render.
type Request struct {
	Catalog string
	Spec    render.Spec
}

// Response is one served grid. Grid is the caller's own: every response is
// a fresh assembly or slice, never a pointer the service retains.
type Response struct {
	Grid     *grid.Grid2D
	Checksum uint64
	// CacheHit reports the request paid for no march of its own: it was
	// assembled inline from resident columns, or sliced out of another
	// request's shared march (batch followers).
	CacheHit bool
	// Degraded reports the service was overloaded and served a coarser
	// rendering of the same field, assembled from resident columns of the
	// coarser family, instead of shedding; DegradeLevel is the
	// power-of-two coarsening applied.
	Degraded     bool
	DegradeLevel int
}

// Stats is a point-in-time snapshot of service counters.
type Stats struct {
	Served    uint64 // responses delivered, including degraded
	Shed      uint64 // requests rejected with ErrOverloaded
	Degraded  uint64 // responses served off the degrade ladder
	Expired   uint64 // requests whose context died before/while rendering
	Builds    uint64 // Delaunay+field builds performed (once per catalog)
	BuildNs   uint64 // cumulative wall time of those cold builds, in ns
	CacheHits uint64 // requests answered by inline column assembly, incl. degraded
	CacheMiss uint64 // batches that ran buildUnion

	// Evicted, Poisoned and EvictedByUpdate counted the whole-grid cache,
	// which no longer exists; they are always 0 and stay only because the
	// frozen bench/e2e harness reads them. Col* below are the live ones.
	Evicted         uint64
	Poisoned        uint64
	EvictedByUpdate uint64

	// Batching counters (the plan-based coalescing layer).
	Batches      uint64 // shared-march batches executed
	BatchedReqs  uint64 // requests served through batches (all members)
	Coalesced    uint64 // batch members beyond the leader (requests that shared a march)
	MaxBatchSeen uint64 // largest batch executed so far
	Marches      uint64 // render invocations that marched at least one column
	ColdColumns  uint64 // columns marched (column-cache misses paid for)

	// Column-cache counters.
	ColHits     uint64
	ColMisses   uint64
	ColEvicted  uint64
	ColPoisoned uint64
	ColCells    int
	ColEntries  int

	// Delta-update counters (Service.Update).
	Updates      uint64 // accepted catalog updates, incl. pre-build edits
	DirtyColumns uint64 // column-cache entries evicted as dirty by updates
	Epochs       uint64 // highest mesh epoch reached by any catalog

	// ResidentBytes is what the current mesh views hold (Marcher.Bytes and
	// the duplicate table), counted as each view is published.
	ResidentBytes int64

	QueueLen int
	Active   int // workers currently executing a batch
}

// Delta is an incremental catalog edit, re-exported so Update callers
// need not import internal/delaunay directly.
type Delta = delaunay.Delta

// meshView is one immutable mesh epoch: the marcher, whose SoA view is the
// catalog's only per-tet structure, and the duplicate table with which
// Update restores the Triangulation from it. Updates never mutate a
// published view, so a batch that loaded one keeps a consistent mesh for
// its whole march even while later epochs land.
type meshView struct {
	m     *render.Marcher
	dupOf []int32
	bytes int // m.Bytes() plus the duplicate table
	epoch uint64
}

// newView builds the serving view of tri at epoch. Neither tri nor its
// field stays reachable from the view.
func newView(tri *delaunay.Triangulation, epoch uint64) (*meshView, error) {
	f, err := dtfe.NewField(tri, nil)
	if err != nil {
		return nil, err
	}
	dup := make([]int32, tri.NumPoints())
	for i := range dup {
		dup[i] = int32(tri.DuplicateOf(i))
	}
	m := render.NewMarcher(f)
	return &meshView{m: m, dupOf: dup, bytes: m.Bytes() + 4*len(dup), epoch: epoch}, nil
}

// restoredPools recycles the tet pools Update restores, garbage once
// ApplyDelta has copied them: without it every update allocates a pool
// more on a heap that holds less, and the collector runs in more of them.
var restoredPools = sync.Pool{New: func() any { return new([]delaunay.Tet) }}

// catalog is one registered particle set and its lazily built mesh.
// built closes exactly once (after which err is immutable and view is
// non-nil on success); view is thereafter swapped atomically by Update,
// one epoch at a time.
type catalog struct {
	pts []geom.Vec3

	mu       sync.Mutex
	building bool
	built    chan struct{}
	err      error

	// umu serializes updates: ApplyDelta, the view swap, and the cache
	// sweep happen under it, so epochs are totally ordered per catalog.
	umu  sync.Mutex
	view atomic.Pointer[meshView]
}

// epoch returns the catalog's current mesh epoch (0 before any update).
func (c *catalog) epoch() uint64 {
	if v := c.view.Load(); v != nil {
		return v.epoch
	}
	return 0
}

// Key identifies one rendering: a registered catalog plus the full render
// spec. render.Spec is a flat comparable struct, so Key is usable directly
// as a map key; with the spec's extents zeroed (famKey) it names a
// coalescing family.
type Key struct {
	Catalog string
	Spec    render.Spec
}

type task struct {
	ctx  context.Context
	id   uint64
	key  Key
	done chan taskResult
}

type taskResult struct {
	resp *Response
	err  error
}

// Service is the resident field server. Create with New, populate with
// Register, serve with Serve, shut down with Close.
//
// While nothing is queued, a request whose columns are all resident is
// assembled inline on the calling goroutine. Everything else is plan-based:
// workers claim a queued request as a batch leader, optionally wait
// BatchWindow for followers,
// gather every queued request in the same coalescing family (same catalog,
// same origin/spacing/jitter — see render.FamilyOf), and execute ONE march
// over the union extent's cold columns, slicing each requester's grid out
// of the shared result. An in-flight family lock serializes batches of the
// same family — it is the service's single-flight — so concurrent
// overlapping traffic never marches the same columns twice.
type Service struct {
	opt      Options
	colcache *colCache
	quit     chan struct{}
	wg       sync.WaitGroup

	qmu      sync.Mutex
	qcond    *sync.Cond
	q        []*task
	inflight map[Key]bool // family keys with a batch executing
	quitting bool

	mu       sync.RWMutex
	closed   bool
	catalogs map[string]*catalog

	reqID     atomic.Uint64
	ewmaNs    atomic.Int64  // exponentially averaged batch wall time
	ewmaBatch atomic.Uint64 // exponentially averaged batch size (float64 bits)

	served, shed, degraded, expired, builds   atomic.Uint64
	buildNs                                   atomic.Uint64
	inlineHits, unions                        atomic.Uint64
	batches, batchedReqs, coalesced, maxBatch atomic.Uint64
	marches, coldCols                         atomic.Uint64
	updates, dirtyCols, epochs                atomic.Uint64
	active, residentBytes                     atomic.Int64
}

// New starts a service with opt (zero-value fields defaulted) and its
// serving workers.
func New(opt Options) *Service {
	if opt.Workers <= 0 {
		opt.Workers = 2
	}
	if opt.QueueDepth <= 0 {
		opt.QueueDepth = 2 * opt.Workers
	}
	if opt.MaxDegrade == 0 {
		opt.MaxDegrade = 2
	}
	if opt.MaxDegrade < 0 {
		opt.MaxDegrade = 0
	}
	if opt.RenderWorkers <= 0 {
		opt.RenderWorkers = 1
	}
	if opt.MaxBatch == 0 {
		opt.MaxBatch = 16
	}
	if opt.MaxBatch < 0 {
		opt.MaxBatch = 1
	}
	if opt.ColumnCacheCells == 0 {
		opt.ColumnCacheCells = 1 << 20
	}
	if opt.ColumnCacheCells < 0 {
		opt.ColumnCacheCells = 0
	}
	s := &Service{
		opt:      opt,
		colcache: newColCache(opt.ColumnCacheCells, int(catalogCacheShare*float64(opt.ColumnCacheCells))),
		quit:     make(chan struct{}),
		inflight: make(map[Key]bool),
		catalogs: make(map[string]*catalog),
	}
	s.qcond = sync.NewCond(&s.qmu)
	s.wg.Add(opt.Workers)
	for i := 0; i < opt.Workers; i++ {
		go s.worker()
	}
	return s
}

// Register records a particle catalog under name. The Delaunay mesh is
// built lazily by the first request that needs it (single-flight: exactly
// one build no matter how many requests race) and pinned for the life of
// the service. Re-registering a name is an error — the mesh is an
// immutable serving asset, not a mutable table.
func (s *Service) Register(name string, pts []geom.Vec3) error {
	if name == "" {
		return fmt.Errorf("fieldserve: empty catalog name")
	}
	if len(pts) == 0 {
		return fmt.Errorf("fieldserve: catalog %q has no particles", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, dup := s.catalogs[name]; dup {
		return fmt.Errorf("fieldserve: catalog %q already registered", name)
	}
	s.catalogs[name] = &catalog{pts: pts, built: make(chan struct{})}
	return nil
}

// Serve renders req under ctx. With nothing queued, a request whose every
// column is resident — an exact repeat, a sub-extent of a warm family, a
// prefix of taller cached columns — is assembled inline; anything with a
// cold column, and everything arriving behind a backlog, goes through the
// bounded admission queue and the batching planner. On overload it
// returns a degraded response when the degrade ladder has one, otherwise a
// typed *OverloadError. A cancelled ctx aborts the request; the shared march
// it may be part of continues as long as any other batch member is alive.
func (s *Service) Serve(ctx context.Context, req Request) (*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := req.Spec.Validate(false); err != nil {
		return nil, err
	}
	s.mu.RLock()
	closed := s.closed
	cat := s.catalogs[req.Catalog]
	s.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if cat == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownCatalog, req.Catalog)
	}

	key := Key{Catalog: req.Catalog, Spec: req.Spec}
	if s.queueLen() == 0 {
		if resp := s.resident(cat, key); resp != nil {
			return resp, nil
		}
	}

	t := &task{ctx: ctx, id: s.reqID.Add(1), key: key, done: make(chan taskResult, 1)}
	s.qmu.Lock()
	if s.quitting {
		s.qmu.Unlock()
		return nil, ErrClosed
	}
	if len(s.q) >= s.opt.QueueDepth {
		depth := len(s.q)
		s.qmu.Unlock()
		return s.degradeOrShed(cat, key, depth)
	}
	s.q = append(s.q, t)
	s.qcond.Broadcast()
	s.qmu.Unlock()

	// Expired is counted here and nowhere else: every admitted request
	// leaves through exactly one of these arms, whichever side noticed the
	// dead context first.
	select {
	case r := <-t.done:
		if r.err != nil {
			if ctx.Err() != nil {
				s.expired.Add(1)
			}
			return nil, r.err
		}
		s.served.Add(1)
		return r.resp, nil
	case <-ctx.Done():
		// The batch executor observes the same context and drops this
		// member at slicing time; we do not wait for it.
		s.expired.Add(1)
		return nil, context.Cause(ctx)
	}
}

// queueLen is the number of admitted requests no worker has claimed yet.
// While it is non-zero no arrival takes the inline path: a warm request
// would overtake the queue, and under sustained overload warm traffic would
// be served at the offered rate whatever the workers manage, leaving the
// queue nothing but marches. Queued, it costs a worker one assembly.
func (s *Service) queueLen() int {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return len(s.q)
}

// resident answers key from the calling goroutine when every column it
// needs is cached at the catalog's current epoch, and returns nil
// otherwise. It never marches and never queues.
func (s *Service) resident(cat *catalog, key Key) *Response {
	g := s.colcache.assemble(key.Catalog, key.Spec, cat.epoch())
	if g == nil {
		return nil
	}
	s.inlineHits.Add(1)
	s.served.Add(1)
	return &Response{Grid: g, Checksum: g.Checksum(), CacheHit: true}
}

// Coarsen returns the spec one or more power-of-two levels coarser than
// spec over the same physical domain: Nx and Ny halved per level, Cell
// doubled, jitter settings unchanged. The second result is false when the
// shape does not divide evenly (degradation must cover the identical
// domain, or the fallback would lie about the field's support).
func Coarsen(spec render.Spec, level int) (render.Spec, bool) {
	if level <= 0 {
		return spec, level == 0
	}
	f := 1 << uint(level)
	if spec.Nx%f != 0 || spec.Ny%f != 0 || spec.Nx/f < 1 || spec.Ny/f < 1 {
		return render.Spec{}, false
	}
	c := spec
	c.Nx /= f
	c.Ny /= f
	c.Cell *= float64(f)
	return c, true
}

// degradeOrShed is the full-queue path: walk the degrade ladder — the
// same field in a coarser family, resident columns only — or shed with a
// retry-after hint.
func (s *Service) degradeOrShed(cat *catalog, key Key, depth int) (*Response, error) {
	for level := 1; level <= s.opt.MaxDegrade; level++ {
		coarse, ok := Coarsen(key.Spec, level)
		if !ok {
			break
		}
		if resp := s.resident(cat, Key{Catalog: key.Catalog, Spec: coarse}); resp != nil {
			s.degraded.Add(1)
			resp.Degraded, resp.DegradeLevel = true, level
			return resp, nil
		}
	}
	s.shed.Add(1)
	return nil, &OverloadError{RetryAfter: s.retryAfter(depth), QueueDepth: depth}
}

// retryAfter estimates the queue-drain time, coalescing-aware: a batched
// queue drains in ceil(depth/avg-batch-size) batches, not depth renders,
// so the hint divides the queued population by the observed average batch
// size before multiplying by the averaged batch cost. With batching off
// (or an average near 1) this degrades to the classic depth × render-time
// estimate.
func (s *Service) retryAfter(depth int) time.Duration {
	avg := time.Duration(s.ewmaNs.Load())
	if avg <= 0 {
		avg = 10 * time.Millisecond
	}
	bsz := math.Float64frombits(s.ewmaBatch.Load())
	if bsz < 1 {
		bsz = 1
	}
	batches := math.Ceil(float64(depth+1) / bsz)
	d := time.Duration(float64(avg) * batches / float64(s.opt.Workers))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// observeBatch feeds the drain estimator: exponentially averaged batch
// wall time and batch size (alpha 0.2, CAS loops so concurrent workers
// never lose an update).
func (s *Service) observeBatch(d time.Duration, size int) {
	const alpha = 0.2
	for {
		old := s.ewmaNs.Load()
		var next int64
		if old == 0 {
			next = int64(d)
		} else {
			next = old + int64(alpha*float64(int64(d)-old))
		}
		if s.ewmaNs.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := s.ewmaBatch.Load()
		var next float64
		if old == 0 {
			next = float64(size)
		} else {
			prev := math.Float64frombits(old)
			next = prev + alpha*(float64(size)-prev)
		}
		if s.ewmaBatch.CompareAndSwap(old, math.Float64bits(next)) {
			break
		}
	}
}

// viewFor returns the current mesh view for a catalog, building the mesh
// exactly once. The build runs on a detached goroutine so the initiating
// request's cancellation cannot abort a build other requests are waiting
// on; waiters block on the build or their own context, whichever ends
// first. Only the view stays resident: Update restores the triangulation
// from it.
func (s *Service) viewFor(ctx context.Context, name string) (*meshView, *catalog, error) {
	s.mu.RLock()
	cat := s.catalogs[name]
	s.mu.RUnlock()
	if cat == nil {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownCatalog, name)
	}
	cat.mu.Lock()
	if !cat.building {
		cat.building = true
		go func() {
			defer close(cat.built)
			s.builds.Add(1)
			start := time.Now()
			tri, err := delaunay.New(cat.pts)
			if err != nil {
				cat.err = fmt.Errorf("fieldserve: building catalog %q: %w", name, err)
				return
			}
			v, err := newView(tri, 0)
			if err != nil {
				cat.err = fmt.Errorf("fieldserve: building catalog %q: %w", name, err)
				return
			}
			cat.view.Store(v)
			s.residentBytes.Add(int64(v.bytes))
			cat.pts = nil // the SoA mesh is the serving asset now
			s.buildNs.Add(uint64(time.Since(start).Nanoseconds()))
		}()
	}
	cat.mu.Unlock()
	select {
	case <-cat.built:
		if cat.err != nil {
			return nil, nil, cat.err
		}
		return cat.view.Load(), cat, nil
	case <-ctx.Done():
		return nil, nil, context.Cause(ctx)
	}
}

// Update applies an incremental delta to a registered catalog via
// delaunay.ApplyDelta. Updates on one catalog are serialized; each
// successful update publishes a new mesh epoch and sweeps the column cache.
//
// Ordering is the crux: the new view is stored BEFORE the sweep, so from
// that instant every cache insert by a still-running old-epoch batch is
// rejected by the epoch guard — anything the sweep cannot see (because
// it is not inserted yet) is already unstorable. In-flight old-epoch
// batches keep rendering their retained view (copy-on-write keeps it
// consistent) and either complete with a pure old-epoch response or die
// with their contexts; no response ever mixes epochs.
//
// If the catalog's mesh has not been built yet the delta is applied
// textually to the pending particle list — there is nothing cached to
// sweep and no epoch to bump, and the eventual lazy build sees the final
// points.
func (s *Service) Update(ctx context.Context, name string, d delaunay.Delta) (*delaunay.DeltaStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.RLock()
	closed := s.closed
	cat := s.catalogs[name]
	s.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if cat == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownCatalog, name)
	}

	cat.umu.Lock()
	defer cat.umu.Unlock()

	cat.mu.Lock()
	if !cat.building {
		// Pre-build textual path: no mesh, no caches, no readers.
		npts, st, err := editPoints(cat.pts, d)
		if err != nil {
			cat.mu.Unlock()
			return nil, err
		}
		cat.pts = npts
		cat.mu.Unlock()
		s.updates.Add(1)
		return st, nil
	}
	cat.mu.Unlock()

	select {
	case <-cat.built:
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
	if cat.err != nil {
		return nil, cat.err
	}

	old := cat.view.Load()
	buf := restoredPools.Get().(*[]delaunay.Tet)
	pts, finite := old.m.Mesh(*buf)
	restored, err := delaunay.Restore(pts, old.dupOf, finite)
	if err != nil {
		return nil, fmt.Errorf("fieldserve: updating catalog %q: %w", name, err)
	}
	tri, st, err := restored.ApplyDelta(d)
	*buf = restored.Tets()[:0]
	restoredPools.Put(buf)
	if err != nil {
		return nil, fmt.Errorf("fieldserve: updating catalog %q: %w", name, err)
	}
	nv, err := newView(tri, old.epoch+1)
	if err != nil {
		return nil, fmt.Errorf("fieldserve: updating catalog %q: %w", name, err)
	}

	cat.view.Store(nv) // publish first; see ordering note above
	s.residentBytes.Add(int64(nv.bytes - old.bytes))
	atomicMax(&s.epochs, nv.epoch)
	dirty := s.colcache.invalidate(name, st, nv.epoch)
	s.updates.Add(1)
	s.dirtyCols.Add(uint64(dirty))
	return st, nil
}

// editPoints applies a delta textually to a particle list (the pre-build
// update path), with the same Remove validation ApplyDelta performs.
func editPoints(pts []geom.Vec3, d delaunay.Delta) ([]geom.Vec3, *delaunay.DeltaStats, error) {
	rm := make(map[int]bool, len(d.Remove))
	for _, r := range d.Remove {
		if r < 0 || r >= len(pts) {
			return nil, nil, geomerr.Degenerate("fieldserve.Update", "removal index %d out of range [0,%d)", r, len(pts))
		}
		if rm[r] {
			return nil, nil, geomerr.Degenerate("fieldserve.Update", "removal index %d listed twice", r)
		}
		rm[r] = true
	}
	for _, p := range d.Add {
		if !p.IsFinite() {
			return nil, nil, geomerr.Degenerate("fieldserve.Update", "added particle has non-finite coordinate %v", p)
		}
	}
	out := make([]geom.Vec3, 0, len(pts)-len(rm)+len(d.Add))
	for i, p := range pts {
		if !rm[i] {
			out = append(out, p)
		}
	}
	out = append(out, d.Add...)
	if len(out) == 0 {
		return nil, nil, geomerr.Degenerate("fieldserve.Update", "delta empties the catalog")
	}
	return out, &delaunay.DeltaStats{
		Inserted: len(d.Add),
		Removed:  len(rm),
		DirtyAll: true,
	}, nil
}

// atomicMax raises a to v if v is larger.
func atomicMax(a *atomic.Uint64, v uint64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	cc := s.colcache.stats()
	return Stats{
		Served:    s.served.Load(),
		Shed:      s.shed.Load(),
		Degraded:  s.degraded.Load(),
		Expired:   s.expired.Load(),
		Builds:    s.builds.Load(),
		BuildNs:   s.buildNs.Load(),
		CacheHits: s.inlineHits.Load(),
		CacheMiss: s.unions.Load(),

		Batches:      s.batches.Load(),
		BatchedReqs:  s.batchedReqs.Load(),
		Coalesced:    s.coalesced.Load(),
		MaxBatchSeen: s.maxBatch.Load(),
		Marches:      s.marches.Load(),
		ColdColumns:  s.coldCols.Load(),

		ColHits:     cc.Hits,
		ColMisses:   cc.Misses,
		ColEvicted:  cc.Evicted,
		ColPoisoned: cc.Poisoned,
		ColCells:    cc.Cells,
		ColEntries:  cc.Entries,

		Updates:      s.updates.Load(),
		DirtyColumns: s.dirtyCols.Load(),
		Epochs:       s.epochs.Load(),

		ResidentBytes: s.residentBytes.Load(),

		QueueLen: s.queueLen(),
		Active:   int(s.active.Load()),
	}
}

// Close shuts the service down: no new requests are admitted, the
// serving workers exit after their current batch, and every task still
// queued is resolved with ErrClosed. Close is idempotent.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.quit)
	s.qmu.Lock()
	s.quitting = true
	s.qcond.Broadcast()
	s.qmu.Unlock()
	s.wg.Wait()
	s.qmu.Lock()
	rem := s.q
	s.q = nil
	s.qmu.Unlock()
	for _, t := range rem {
		t.done <- taskResult{err: ErrClosed}
	}
}
