package fieldserve

import (
	"container/list"
	"math"
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
}

// colCache is the service's one cache — a whole grid is a run of columns,
// and a degraded grid a run of columns of a coarser family — budgeted in
// cells (float64s) rather than entries so tall and short columns are
// accounted honestly. Two disciplines hold on every read: hit-time checksum
// verification (a corrupted column is evicted and re-marched, never
// served), and an elastic per-catalog quota (catBudget cells, 0 disables)
// enforced only under eviction pressure — a catalog may grow past its share
// while the cache has free space, but once it is full an insert for a
// catalog over its share evicts that catalog's own LRU column, so one hot
// catalog can never drain every other catalog's entries.
//
// A lookup needs the column's rows 0..ny-1; a cached column taller than ny
// serves the request as a prefix, and a shorter one is a miss (the caller
// re-marches the full height and the taller result replaces it). A nil
// *colCache is a valid "caching disabled" cache: get and assemble always
// miss and put is a no-op.
type colCache struct {
	mu        sync.Mutex
	budget    int
	catBudget int
	cells     int
	entries   map[colKey]*colEntry
	order     *list.List // front = most recently used
	perCat    map[string]int

	hits, misses, evicted, poisoned uint64
}

func newColCache(budget, catBudget int) *colCache {
	if budget <= 0 {
		return nil
	}
	return &colCache{
		budget:    budget,
		catBudget: catBudget,
		entries:   make(map[colKey]*colEntry),
		order:     list.New(),
		perCat:    make(map[string]int),
	}
}

// get returns the verified rows 0..ny-1 of the cached column, or a miss.
// The returned slice aliases the immutable cache entry; callers must only
// read it. epoch is the caller's mesh epoch: an entry tagged differently
// is a miss (never served), which is what keeps a batch's assembled union
// grid internally consistent across concurrent updates.
func (c *colCache) get(key colKey, ny int, epoch uint64) ([]float64, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || len(e.vals) < ny || e.epoch != epoch || !c.verifiedLocked(e) {
		c.misses++
		return nil, false
	}
	c.order.MoveToFront(e.elem)
	c.hits++
	return e.vals[:ny], true
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
	if c == nil {
		return nil
	}
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
		c.order.MoveToFront(e.elem)
	}
	c.hits += uint64(len(cols))
	return out
}

// rot flips one mantissa bit of a resident column in place, after its
// checksum was recorded (fault injection); hit-time verification must
// catch it.
func (c *colCache) rot(key colKey) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		i := len(e.vals) / 2
		e.vals[i] = math.Float64frombits(math.Float64bits(e.vals[i]) ^ 1)
	}
}

// put inserts a freshly marched column. vals is adopted, not copied — the
// caller must hand over a private slice and never write to it again.
// epoch tags the entry with the mesh epoch it was marched from; insertOK,
// when non-nil, is evaluated under the cache lock and a false verdict
// drops the insert — the epoch guard against a stale batch publishing
// old-epoch columns after an update's sweep already ran.
func (c *colCache) put(key colKey, vals []float64, epoch uint64, insertOK func() bool) {
	if c == nil || len(vals) == 0 || len(vals) > c.budget {
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
	e.elem = c.order.PushFront(e)
	c.entries[key] = e
	c.cells += len(vals)
	c.perCat[key.Catalog] += len(vals)
	for c.cells > c.budget {
		c.removeLocked(c.victimLocked(key.Catalog))
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
	if c == nil {
		return 0
	}
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
	c.order.Remove(e.elem)
	c.cells -= len(e.vals)
	if n := c.perCat[e.key.Catalog] - len(e.vals); n > 0 {
		c.perCat[e.key.Catalog] = n
	} else {
		delete(c.perCat, e.key.Catalog)
	}
}

// victimLocked picks the eviction victim for an insert by owner: the
// owner's own LRU column when the owner is over its cell quota, the global
// LRU column otherwise.
func (c *colCache) victimLocked(owner string) *colEntry {
	if c.catBudget > 0 && c.perCat[owner] > c.catBudget {
		for el := c.order.Back(); el != nil; el = el.Prev() {
			if e := el.Value.(*colEntry); e.key.Catalog == owner {
				return e
			}
		}
	}
	return c.order.Back().Value.(*colEntry)
}

// colStats is a consistent snapshot of the column-cache counters.
type colStats struct {
	Hits, Misses, Evicted, Poisoned uint64
	Cells, Entries                  int
}

func (c *colCache) stats() colStats {
	if c == nil {
		return colStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return colStats{
		Hits: c.hits, Misses: c.misses, Evicted: c.evicted, Poisoned: c.poisoned,
		Cells: c.cells, Entries: len(c.entries),
	}
}
