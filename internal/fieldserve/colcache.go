package fieldserve

import (
	"container/list"
	"sync"

	"godtfe/internal/delaunay"
	"godtfe/internal/grid"
	"godtfe/internal/render"
)

// colKey identifies one cached marched column: a catalog, the column's
// geometry family (the request spec with its window extents zeroed — see
// render.FamilyOf), and the global column index. Every field that shapes a
// column's values is in the family key, so a column cached by one request
// is bit-exactly the column any other family member would march.
type colKey struct {
	Catalog string
	Family  render.Spec
	Col     int
}

// colEntry is one resident column. vals holds rows 0..len-1 of the global
// column, and is immutable once inserted: a hit hands out a prefix view of
// the same backing array, so nothing downstream may write to it (callers
// copy into their own grids via SetColumn).
//
// epoch is the catalog mesh epoch whose field the values were marched
// from (or proven identical to: an update's invalidation sweep re-tags
// clean survivors to the new epoch). The invariant after every sweep is
// that all resident entries of a catalog carry its current epoch, so a
// get by a stale batch misses and the batch re-marches a consistent
// old-epoch response instead of mixing epochs.
type colEntry struct {
	key   colKey
	vals  []float64
	sum   uint64 // grid.ChecksumBits(vals) at insert; re-verified on every hit
	epoch uint64
	elem  *list.Element
	// protected: elem is in the protected segment, not in probation.
	protected bool
}

// protectedShare is the fraction of the cell budget the protected segment
// may hold. BenchmarkColumnCacheZipf reads 0.1731, 0.1630, 0.1577, 0.1540
// and 0.1551 cold columns per requested column at 0.5, 0.7, 0.8, 0.9 and
// 0.95 (a plain LRU: 0.1889).
const protectedShare = 0.9

// colCache is the service's one cache — a whole grid is a run of columns,
// and a degraded grid a run of columns of a coarser family — budgeted in
// cells (float64s) rather than entries so tall and short columns are
// accounted honestly. It is a segmented LRU over that one budget, so a scan
// of one-off columns cannot flush the columns traffic comes back for: an
// insert lands at the front of probation, its first hit promotes it to the
// front of protected, and protected's LRU columns are demoted to the front
// of probation while it holds more than protectedShare of the budget.
// Traffic that never hits keeps every column on probation, which is
// exactly a plain LRU. victimLocked holds the one eviction rule.
//
// Hit-time checksum verification holds on every read: a corrupted column
// is evicted and re-marched, never served.
//
// A lookup needs the column's rows 0..ny-1; a cached column taller than ny
// serves the request as a prefix, and a shorter one is a miss (the caller
// re-marches the full height and the taller result replaces it).
type colCache struct {
	mu        sync.Mutex
	budget    int
	cells     int
	entries   map[colKey]*colEntry
	probation *list.List // front = most recently used, in each segment
	protected *list.List
	protCells int // cells held by protected

	hits, misses, evicted, poisoned uint64
}

func newColCache(budget int) *colCache {
	return &colCache{
		budget:    budget,
		entries:   make(map[colKey]*colEntry),
		probation: list.New(),
		protected: list.New(),
	}
}

// get returns the verified rows 0..ny-1 of the cached column, or a miss.
// The returned slice aliases the immutable cache entry; callers must only
// read it. epoch is the caller's mesh epoch: an entry tagged differently
// is a miss (never served), which is what keeps a batch's assembled union
// grid internally consistent across concurrent updates.
func (c *colCache) get(key colKey, ny int, epoch uint64) ([]float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || len(e.vals) < ny || e.epoch != epoch || !c.verifiedLocked(e) {
		c.misses++
		return nil, false
	}
	c.hitLocked(e)
	c.hits++
	return e.vals[:ny], true
}

// hitLocked records a committed hit: a protected column moves to the
// protected front; a probation column is promoted there, and protected's
// LRU columns are demoted to the probation front while it is over its
// share.
func (c *colCache) hitLocked(e *colEntry) {
	if e.protected {
		c.protected.MoveToFront(e.elem)
		return
	}
	c.probation.Remove(e.elem)
	e.elem, e.protected = c.protected.PushFront(e), true
	c.protCells += len(e.vals)
	for c.protCells > int(protectedShare*float64(c.budget)) {
		d := c.protected.Remove(c.protected.Back()).(*colEntry)
		d.elem, d.protected = c.probation.PushFront(d), false
		c.protCells -= len(d.vals)
	}
}

// verifiedLocked re-hashes a resident column against the checksum recorded
// at insert. A mismatch means the entry was corrupted after it was stored
// (cache rot): it is evicted and counted, and the caller sees a miss.
func (c *colCache) verifiedLocked(e *colEntry) bool {
	if grid.ChecksumBits(e.vals) == e.sum {
		return true
	}
	c.poisoned++
	c.removeLocked(e)
	return false
}

// assemble is the resident-only lookup behind the inline fast path and
// the degrade ladder: spec's grid built from cached columns of its family
// at epoch — all Nx columns present, tall enough, epoch-tagged and
// checksum-verified — or nil. It never marches and never queues. Presence,
// height and epoch of every column are checked before any values are
// hashed, and the hit counters move only on a commit, so a partly-warm
// request costs Nx map lookups and leaves the hit ratio to the batch that
// will serve it. The whole probe runs under the cache lock, which is what
// makes the result a pure function of one epoch: an update's sweep
// re-tags or evicts a catalog's columns atomically with respect to it.
func (c *colCache) assemble(catalog string, spec render.Spec, epoch uint64) *grid.Grid2D {
	key := colKey{Catalog: catalog, Family: render.FamilyOf(spec)}
	var cols []*colEntry // allocated once column 0 is in: a cold family costs one lookup
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < spec.Nx; i++ {
		key.Col = i
		e, ok := c.entries[key]
		if !ok || len(e.vals) < spec.Ny || e.epoch != epoch {
			return nil
		}
		if cols == nil {
			cols = make([]*colEntry, spec.Nx)
		}
		cols[i] = e
	}
	for _, e := range cols {
		if !c.verifiedLocked(e) {
			return nil
		}
	}
	out := spec.Grid()
	for i, e := range cols {
		out.SetColumn(i, e.vals[:spec.Ny])
		c.hitLocked(e)
	}
	c.hits += uint64(len(cols))
	return out
}

// put inserts a freshly marched column at the front of probation, replacing
// any entry of the key in either segment. vals is adopted, not copied — the
// caller must hand over a private slice and never write to it again.
// epoch tags the entry with the mesh epoch it was marched from; insertOK,
// when non-nil, is evaluated under the cache lock and a false verdict
// drops the insert — the epoch guard against a stale batch publishing
// old-epoch columns after an update's sweep already ran.
func (c *colCache) put(key colKey, vals []float64, epoch uint64, insertOK func() bool) {
	if len(vals) == 0 || len(vals) > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if insertOK != nil && !insertOK() {
		return
	}
	if old, ok := c.entries[key]; ok {
		c.removeLocked(old)
	}
	e := &colEntry{key: key, vals: vals, sum: grid.ChecksumBits(vals), epoch: epoch}
	e.elem = c.probation.PushFront(e)
	c.entries[key] = e
	c.cells += len(vals)
	for c.cells > c.budget {
		c.removeLocked(c.victimLocked(e))
		c.evicted++
	}
}

// invalidate sweeps one catalog's columns after a mesh update. Columns
// whose x-range intersects the dirty region (every column under DirtyAll)
// are evicted; clean survivors are re-tagged to the new epoch — the dirty
// region soundly overapproximates every changed column, so a clean
// column's values are bit-identical on the new mesh and may keep serving
// new-epoch batches without a re-march. Still-running old-epoch batches
// then miss on everything (epoch mismatch) and re-march a consistent
// old-epoch response from their retained mesh view. Returns the evicted
// count.
func (c *colCache) invalidate(catalog string, st *delaunay.DeltaStats, newEpoch uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var victims []*colEntry
	for _, e := range c.entries {
		if e.key.Catalog != catalog {
			continue
		}
		lo := e.key.Family.Min.X + float64(e.key.Col)*e.key.Family.Cell
		hi := lo + e.key.Family.Cell
		if st.DirtyAll || st.DirtyIntersects(lo, hi) {
			victims = append(victims, e)
		} else {
			e.epoch = newEpoch
		}
	}
	for _, e := range victims {
		c.removeLocked(e)
	}
	return len(victims)
}

func (c *colCache) removeLocked(e *colEntry) {
	delete(c.entries, e.key)
	if e.protected {
		c.protected.Remove(e.elem)
		c.protCells -= len(e.vals)
	} else {
		c.probation.Remove(e.elem)
	}
	c.cells -= len(e.vals)
}

// victimLocked picks the eviction victim for inserting e: probation's LRU
// column (probation holds e, so it is never empty here) — unless that column
// is of e's own family while protected holds more than half the budget, in
// which case it is protected's LRU column. Without the exception a grid
// larger than probation's free share would evict its own earlier columns on
// every insert and never become resident; with it, protected yields to a
// family of up to half the budget and stops yielding once it holds half or
// less, so a larger family is re-marched on every request while protected
// keeps about half (less by under one of its columns).
func (c *colCache) victimLocked(e *colEntry) *colEntry {
	v := c.probation.Back().Value.(*colEntry)
	if v.key.Catalog == e.key.Catalog && v.key.Family == e.key.Family && 2*c.protCells > c.budget {
		return c.protected.Back().Value.(*colEntry)
	}
	return v
}

// colStats is a consistent snapshot of the column-cache counters.
type colStats struct {
	Hits, Misses, Evicted, Poisoned uint64
	Cells, Entries                  int
}

func (c *colCache) stats() colStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return colStats{
		Hits: c.hits, Misses: c.misses, Evicted: c.evicted, Poisoned: c.poisoned,
		Cells: c.cells, Entries: len(c.entries),
	}
}
