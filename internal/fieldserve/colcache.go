package fieldserve

import (
	"sync"

	"godtfe/internal/delaunay"
	"godtfe/internal/grid"
	"godtfe/internal/render"
)

// famID is an interned column family: a catalog and a geometry family (the
// request spec with its window extents zeroed — see render.FamilyOf). Every
// field that shapes a column's values is in the family, so a column cached
// by one request is bit-exactly the column any other family member would
// march. A family's record goes with its last resident column and the last
// release of an intern.
type famID int32

type colFamily struct {
	key        Key // famKey form
	cols, pins int32
}

// colEntry is one slot of the cache's slab. vals holds rows 0..len-1 of
// global column col, and is immutable once inserted: a hit hands out a
// prefix view of it, so nothing downstream may write to it (callers copy
// via SetColumn). A free slot has nil vals and links the free list by next.
//
// epoch is the catalog mesh epoch whose field the values were marched
// from, or proven identical to (the update sweep re-tags clean survivors).
// After every sweep all resident entries of a catalog carry its current
// epoch, so a get by a stale batch misses and the batch re-marches a
// consistent old-epoch response instead of mixing epochs.
type colEntry struct {
	vals       []float64
	sum        uint64 // grid.ChecksumBits(vals) at insert; re-verified on every hit
	epoch      uint64
	fam        famID
	col        int32
	prev, next int32 // neighbours in the entry's segment list
}

// Slab slots 0 and 1 head the circular probation and protected lists and
// hold no column, so 0 also means "none" in the free list and the table.
const probation, protected = 0, 1

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
// exactly a plain LRU. victimLocked holds the one eviction rule. Per
// resident column it holds, beside the cells, a 56-B slab slot, a segment
// flag and 2–8 int32 slots of a (family, column) table (DESIGN §13).
//
// Hit-time checksum verification holds on every read: a corrupted column
// is evicted and re-marched, never served.
//
// A lookup needs the column's rows 0..ny-1; a cached column taller than ny
// serves the request as a prefix, and a shorter one is a miss (the caller
// re-marches the full height and the taller result replaces it).
type colCache struct {
	mu                          sync.Mutex
	budget, cells, protCells, n int // protCells: cells on protected; n: resident columns

	ents []colEntry
	prot []bool  // prot[i]: slot i is on protected
	free int32   // head of the free slots
	idx  []int32 // linear-probing table of slab slots, a power of two long
	fams map[Key]famID
	recs []colFamily
	recf []famID // free family ids

	hits, misses, evicted, poisoned uint64
}

func newColCache(budget int) *colCache {
	return &colCache{
		budget: budget, fams: make(map[Key]famID), prot: []bool{false, true}, idx: make([]int32, 8),
		ents: []colEntry{{prev: probation, next: probation}, {prev: protected, next: protected}},
	}
}

// intern returns k's family id (k in famKey form), held until release so
// that it cannot pass to another family meanwhile.
func (c *colCache) intern(k Key) famID {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.fams[k]
	if !ok {
		if n := len(c.recf); n > 0 {
			f, c.recf = c.recf[n-1], c.recf[:n-1]
		} else {
			f, c.recs = famID(len(c.recs)), append(c.recs, colFamily{})
		}
		c.recs[f] = colFamily{key: k}
		c.fams[k] = f
	}
	c.recs[f].pins++
	return f
}

func (c *colCache) release(f famID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs[f].pins--
	c.dropLocked(f)
}

func (c *colCache) dropLocked(f famID) {
	if r := &c.recs[f]; r.cols == 0 && r.pins == 0 {
		delete(c.fams, r.key)
		*r = colFamily{}
		c.recf = append(c.recf, f)
	}
}

// slot is the table slot that holds column col of f, or the empty slot
// where it would go.
func (c *colCache) slot(f famID, col int32) int {
	mask := len(c.idx) - 1
	for s := c.home(f, col); ; s = (s + 1) & mask {
		if i := c.idx[s]; i == 0 || c.ents[i].fam == f && c.ents[i].col == col {
			return s
		}
	}
}

func (c *colCache) home(f famID, col int32) int {
	return int((uint64(f)<<32|uint64(uint32(col)))*0x9e3779b97f4a7c15>>32) & (len(c.idx) - 1)
}

// reindex rebuilds the table at n slots.
func (c *colCache) reindex(n int) {
	c.idx = make([]int32, n)
	for i := int32(2); int(i) < len(c.ents); i++ {
		if e := &c.ents[i]; e.vals != nil {
			c.idx[c.slot(e.fam, e.col)] = i
		}
	}
}

// getCol returns the verified rows 0..ny-1 of column col of f, or a miss.
// The slice aliases the immutable entry; callers only read it. An entry not
// tagged with the caller's mesh epoch is a miss, which keeps a batch's union
// grid consistent across concurrent updates.
func (c *colCache) getCol(f famID, col, ny int, epoch uint64) ([]float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := c.idx[c.slot(f, int32(col))]
	if i == 0 || len(c.ents[i].vals) < ny || c.ents[i].epoch != epoch || !c.verifiedLocked(i) {
		c.misses++
		return nil, false
	}
	c.hitLocked(i)
	c.hits++
	return c.ents[i].vals[:ny], true
}

// toFront moves slot i to the front of list; a new slot links to itself.
func (c *colCache) toFront(list, i int32) {
	e := &c.ents[i]
	c.ents[e.prev].next, c.ents[e.next].prev = e.next, e.prev
	e.prev, e.next = list, c.ents[list].next
	c.ents[e.next].prev, c.ents[list].next = i, i
	c.prot[i] = list == protected
}

// hitLocked records a committed hit: a protected column moves to the
// protected front; a probation column is promoted there, and protected's
// LRU columns are demoted to the probation front while it is over its
// share.
func (c *colCache) hitLocked(i int32) {
	if c.prot[i] {
		c.toFront(protected, i)
		return
	}
	c.toFront(protected, i)
	c.protCells += len(c.ents[i].vals)
	for c.protCells > int(protectedShare*float64(c.budget)) {
		d := c.ents[protected].prev
		c.toFront(probation, d)
		c.protCells -= len(c.ents[d].vals)
	}
}

// verifiedLocked re-hashes a resident column against the checksum recorded
// at insert. A mismatch means the entry was corrupted after it was stored
// (cache rot): it is evicted and counted, and the caller sees a miss.
func (c *colCache) verifiedLocked(i int32) bool {
	if grid.ChecksumBits(c.ents[i].vals) == c.ents[i].sum {
		return true
	}
	c.poisoned++
	c.removeLocked(i)
	return false
}

// assemble is the resident-only lookup behind the inline fast path and
// the degrade ladder: spec's grid built from cached columns of its family
// at epoch — all Nx columns present, tall enough, epoch-tagged and
// checksum-verified — or nil. It never marches and never queues. Presence,
// height and epoch of every column are checked before any values are
// hashed, and the hit counters move only on a commit, so a partly-warm
// request costs Nx table lookups and leaves the hit ratio to the batch that
// will serve it. The whole probe runs under the cache lock, which is what
// makes the result a pure function of one epoch: an update's sweep
// re-tags or evicts a catalog's columns atomically with respect to it.
func (c *colCache) assemble(catalog string, spec render.Spec, epoch uint64) *grid.Grid2D {
	key := Key{Catalog: catalog, Spec: render.FamilyOf(spec)}
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.fams[key] // a family with no resident column costs this lookup
	if !ok {
		return nil
	}
	cols := make([]int32, spec.Nx)
	for col := range cols {
		i := c.idx[c.slot(f, int32(col))]
		if i == 0 || len(c.ents[i].vals) < spec.Ny || c.ents[i].epoch != epoch {
			return nil
		}
		cols[col] = i
	}
	for _, i := range cols {
		if !c.verifiedLocked(i) {
			return nil
		}
	}
	out := spec.Grid()
	for col, i := range cols {
		out.SetColumn(col, c.ents[i].vals[:spec.Ny])
		c.hitLocked(i)
	}
	c.hits += uint64(len(cols))
	return out
}

// putCol inserts a freshly marched column col of f at the front of
// probation, replacing any entry of it. vals is adopted, not copied: the
// caller never writes to it again. epoch tags it with the mesh epoch it was
// marched from; insertOK, when non-nil, runs under the cache lock and a
// false verdict drops the insert — the guard against a stale batch
// publishing old-epoch columns after an update's sweep already ran.
func (c *colCache) putCol(f famID, col int, vals []float64, epoch uint64, insertOK func() bool) {
	if len(vals) == 0 || len(vals) > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if insertOK != nil && !insertOK() {
		return
	}
	if old := c.idx[c.slot(f, int32(col))]; old != 0 {
		c.removeLocked(old)
	}
	i := c.free
	if i != 0 {
		c.free = c.ents[i].next
	} else {
		i = int32(len(c.ents))
		c.ents, c.prot = append(c.ents, colEntry{}), append(c.prot, false)
	}
	c.ents[i] = colEntry{vals: vals, sum: grid.ChecksumBits(vals), epoch: epoch, fam: f, col: int32(col), prev: i, next: i}
	c.toFront(probation, i)
	c.idx[c.slot(f, int32(col))] = i
	c.n++
	c.recs[f].cols++
	c.cells += len(vals)
	for c.cells > c.budget {
		c.removeLocked(c.victimLocked(i))
		c.evicted++
	}
	if 2*c.n > len(c.idx) {
		c.reindex(2 * len(c.idx))
	}
}

// invalidate sweeps one catalog's columns after a mesh update and returns
// how many it evicted: those whose x-range meets the dirty region (all
// under DirtyAll). Clean survivors are re-tagged to the new epoch — the
// dirty region overapproximates every changed column, so their values are
// bit-identical on the new mesh. Still-running old-epoch batches then miss
// on everything and re-march a consistent response from their own view.
func (c *colCache) invalidate(catalog string, st *delaunay.DeltaStats, newEpoch uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	evicted := 0
	for i := int32(2); int(i) < len(c.ents); i++ {
		e := &c.ents[i]
		if e.vals == nil || c.recs[e.fam].key.Catalog != catalog {
			continue
		}
		fam := &c.recs[e.fam].key.Spec
		lo := fam.Min.X + float64(e.col)*fam.Cell
		if st.DirtyAll || st.DirtyIntersects(lo, lo+fam.Cell) {
			c.removeLocked(i)
			evicted++
		} else {
			e.epoch = newEpoch
		}
	}
	return evicted
}

// removeLocked frees slot i; the table closes the gap by backward shift.
func (c *colCache) removeLocked(i int32) {
	e := &c.ents[i]
	mask := len(c.idx) - 1
	s := c.slot(e.fam, e.col)
	for j := (s + 1) & mask; c.idx[j] != 0; j = (j + 1) & mask {
		m := &c.ents[c.idx[j]]
		if (j-c.home(m.fam, m.col))&mask >= (j-s)&mask {
			c.idx[s], s = c.idx[j], j
		}
	}
	c.idx[s] = 0
	c.ents[e.prev].next, c.ents[e.next].prev = e.next, e.prev
	if c.prot[i] {
		c.protCells -= len(e.vals)
	}
	c.cells -= len(e.vals)
	c.recs[e.fam].cols--
	c.dropLocked(e.fam)
	e.vals, e.next, c.free = nil, c.free, i
	if c.n--; len(c.idx) > 8 && 8*c.n < len(c.idx) {
		c.reindex(len(c.idx) / 2)
	}
}

// victimLocked picks the eviction victim for inserting slot i: probation's
// LRU column (probation holds i, so it is never empty here) — or, if that
// is of i's own family while protected holds over half the budget,
// protected's LRU column. Without the exception a grid larger than
// probation's free share would evict its own earlier columns and never
// become resident; with it, protected yields to a family of up to half the
// budget, and a larger family is re-marched on every request while
// protected keeps about half (less by under one of its columns).
func (c *colCache) victimLocked(i int32) int32 {
	v := c.ents[probation].prev
	if c.ents[v].fam == c.ents[i].fam && 2*c.protCells > c.budget {
		return c.ents[protected].prev
	}
	return v
}

// colStats is a consistent snapshot of the column-cache counters.
type colStats struct {
	Hits, Misses, Evicted, Poisoned uint64
	Cells, Entries, Bytes           int
}

func (c *colCache) stats() colStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return colStats{
		Hits: c.hits, Misses: c.misses, Evicted: c.evicted, Poisoned: c.poisoned,
		Cells: c.cells, Entries: c.n,
		// A family is its record and a map slot at about 3/4 load.
		Bytes: 8*c.cells + (56+1)*len(c.ents) + 4*len(c.idx) + (104+140)*len(c.recs) + 4*len(c.recf),
	}
}
