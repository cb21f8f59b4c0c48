package fieldserve

import (
	"context"
	"runtime"
	"testing"
)

// TestResidentBytesPerParticle is the memory gate of the resident mesh: a
// served 20k-particle halo catalog keeps at most 500 bytes per particle on
// the heap once the column cache's cells are set aside — the marcher's SoA
// view, the positions it shares and the duplicate table, with no
// Triangulation or Field pinned beside them — and again after an Update,
// once the old view is unreachable. Stats.ResidentBytes, counted from slice
// lengths, must not exceed what the heap holds.
func TestResidentBytesPerParticle(t *testing.T) {
	const n, limit = 20000, 500
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	base := heap()

	s := New(Options{Workers: 1})
	defer s.Close()
	pts := testPoints(n, 4)
	d := bandChurn(pts, 9)
	if err := s.Register("halos", pts); err != nil {
		t.Fatal(err)
	}
	pts = nil // the service's view shares the array; the test keeps no copy

	check := func(when string) {
		t.Helper()
		if _, err := s.Serve(context.Background(), Request{Catalog: "halos", Spec: testSpec(64, 1)}); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		used := heap() - base - 8*int64(st.ColCells)
		t.Logf("%s: %d B/particle on the heap, %d counted by Stats.ResidentBytes", when, used/n, st.ResidentBytes/n)
		if used > limit*n {
			t.Errorf("%s: %d B/particle resident, want ≤ %d", when, used/n, limit)
		}
		if st.ResidentBytes <= 0 || st.ResidentBytes > used {
			t.Errorf("%s: Stats.ResidentBytes = %d, heap holds %d", when, st.ResidentBytes, used)
		}
	}
	check("built")
	if _, err := s.Update(context.Background(), "halos", d); err != nil {
		t.Fatal(err)
	}
	check("updated")
}
