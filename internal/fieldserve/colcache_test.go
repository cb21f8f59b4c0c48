package fieldserve

import (
	"runtime"
	"testing"

	"godtfe/internal/delaunay"
	"godtfe/internal/render"
)

// colKey names one cached column for the tests that drive colCache
// directly: a catalog, a render.FamilyOf spec and the global column index.
type colKey struct {
	Catalog string
	Family  render.Spec
	Col     int
}

func (k colKey) family() Key { return Key{Catalog: k.Catalog, Spec: k.Family} }

// get is getCol for one column, with its family held for the one call.
func (c *colCache) get(k colKey, ny int, epoch uint64) ([]float64, bool) {
	f := c.intern(k.family())
	defer c.release(f)
	return c.getCol(f, k.Col, ny, epoch)
}

// put is putCol for one column, with its family held for the one call.
func (c *colCache) put(k colKey, vals []float64, epoch uint64, insertOK func() bool) {
	f := c.intern(k.family())
	defer c.release(f)
	c.putCol(f, k.Col, vals, epoch, insertOK)
}

// peek is the tests' one look at a resident entry: a copy of it, whose vals
// share the cached backing array, without touching recency or counters.
func (c *colCache) peek(k colKey) (colEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.fams[k.family()]
	if !ok {
		return colEntry{}, false
	}
	i := c.idx[c.slot(f, int32(k.Col))]
	return c.ents[i], i != 0
}

// TestColumnCacheBytes fills a cache to its default budget with 32-row
// columns the way serve_overlap does (768 hot families, up to 128 columns
// each) and the way serve_unique does (a one-off family per 32-column
// window), and weighs it: the heap it holds is its cells plus at most 96 B
// a column, ColBytes is within 10% of that heap, and once every column is
// gone, by eviction or by a DirtyAll sweep, no family record is left.
func TestColumnCacheBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is on the heap")
	}
	const ny, budget = 32, defaultColumnCacheCells
	fills := map[string]func(c *colCache){
		"hot": func(c *colCache) {
			for col := 0; c.cells < budget; col++ {
				for f := 0; f < 768 && c.cells < budget; f++ {
					c.put(colKey{Catalog: "halos", Family: render.FamilyOf(testSpec(128, int64(f))), Col: col}, make([]float64, ny), 0, nil)
				}
			}
		},
		"unique": func(c *colCache) {
			for f := 0; c.cells < budget; f++ {
				for col := 0; col < 32; col++ {
					c.put(colKey{Catalog: "halos", Family: render.FamilyOf(testSpec(32, int64(f))), Col: col}, make([]float64, ny), 0, nil)
				}
			}
		},
	}
	for name, fill := range fills {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		c := newColCache(budget)
		fill(c)
		runtime.GC()
		runtime.ReadMemStats(&m1)
		st := c.stats()
		heap := int(m1.HeapAlloc) - int(m0.HeapAlloc)
		perCol := float64(heap-8*st.Cells) / float64(st.Entries)
		t.Logf("%s: %d columns, %d cells, heap %d B (%.1f B a column beyond its cells), ColBytes %d, %d families",
			name, st.Entries, st.Cells, heap, perCol, st.Bytes, len(c.fams))
		if perCol > 96 {
			t.Errorf("%s: %.1f B of bookkeeping a column, want <= 96", name, perCol)
		}
		if d := float64(st.Bytes-heap) / float64(heap); d < -0.1 || d > 0.1 {
			t.Errorf("%s: ColBytes %d is %+.1f%% off the heap it holds, %d B", name, st.Bytes, 100*d, heap)
		}

		// Evict every column with a family of columns as tall as the budget
		// allows, then let that family go too.
		big := colKey{Catalog: "big", Family: render.FamilyOf(testSpec(2, 1))}
		c.put(big, make([]float64, budget), 0, nil)
		c.invalidate("big", &delaunay.DeltaStats{DirtyAll: true}, 1)
		if st := c.stats(); st.Entries != 0 || st.Cells != 0 || len(c.fams) != 0 {
			t.Errorf("%s: after eviction %d columns, %d cells, %d families resident", name, st.Entries, st.Cells, len(c.fams))
		}
		fill(c)
		c.invalidate("halos", &delaunay.DeltaStats{DirtyAll: true}, 1)
		if st := c.stats(); st.Entries != 0 || st.Cells != 0 || len(c.fams) != 0 {
			t.Errorf("%s: after a DirtyAll sweep %d columns, %d cells, %d families resident", name, st.Entries, st.Cells, len(c.fams))
		}
		runtime.KeepAlive(c)
	}
}
