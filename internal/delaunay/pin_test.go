package delaunay

import (
	"encoding/binary"
	"hash/fnv"
	"slices"
	"testing"

	"godtfe/internal/geom"
	"godtfe/internal/synth"
)

// buildPins are FNV-64a digests of New's whole observable output — the
// tet pool, the duplicate map, the vertex anchors, the finite count, the
// insert-loop counters and the exact-predicate calls the build made — on
// fixed catalogs, recorded before the insert loop was last reworked. The
// bit-identity suites compare one path against another; this pins the
// build itself, so a change that moves every path alike still shows.
var buildPins = map[string]uint64{
	"order/dups":     0xfe3f51b26ba6c4b2,
	"order/zeros":    0xe8e4feab5e05398d,
	"order/lattice6": 0xe631fb3c1746486d,
	"order/small":    0x93cc82a19109c804,
	"order/seam":     0x2880b78f3013bb81,
	"test/clustered": 0x43a630ab3bb98ec5,
	"test/random":    0x860c364d87be4caa,
	"test/lattice":   0x368c8d938bcb864a,
	"test/snapped":   0x29312fe31db3fa0c,
	"test/dirty":     0x7e8f029fab495f7f,
	"halo/106250":    0xb4657b2dff288b19,
}

// buildDigest builds pts with New and hashes what the build exposes.
func buildDigest(t *testing.T, pts []geom.Vec3) (uint64, BuildStats) {
	t.Helper()
	exact0, deep0 := geom.ExactCalls.Load(), geom.DeepExactCalls.Load()
	tri, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	exact, deep := geom.ExactCalls.Load()-exact0, geom.DeepExactCalls.Load()-deep0
	h := fnv.New64a()
	var buf []byte
	put := func(x uint64) { buf = binary.LittleEndian.AppendUint64(buf, x) }
	for _, tt := range tri.Tets() {
		for k := 0; k < 4; k++ {
			put(uint64(uint32(tt.V[k])))
			put(uint64(uint32(tt.N[k])))
		}
	}
	for i := range pts {
		put(uint64(tri.DuplicateOf(i)))
		put(uint64(uint32(tri.VertexTet(int32(i)))))
	}
	s := tri.BuildStats()
	for _, x := range []int64{int64(tri.NumFiniteTets()), s.Inserts, s.WalkSteps, s.ConflictTests, s.CavityTets, s.NewTets} {
		put(uint64(x))
	}
	put(exact)
	put(deep)
	h.Write(buf)
	return h.Sum64(), s
}

// TestBuildPinnedToParent: New's output on the pinned catalogs is what it
// was when buildPins were recorded, bit for bit and call for call.
func TestBuildPinnedToParent(t *testing.T) {
	cats := map[string][]geom.Vec3{}
	for name, pts := range orderCatalogSet() {
		cats["order/"+name] = pts
	}
	for name, pts := range testCatalogSet(2000) {
		cats["test/"+name] = pts
	}
	if !testing.Short() {
		box := geom.AABB{Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
		cats["halo/106250"] = synth.HaloSet(106250, box, synth.DefaultHaloSpec(), 1)
	}
	names := make([]string, 0, len(cats))
	for name := range cats {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		got, s := buildDigest(t, cats[name])
		if want, ok := buildPins[name]; !ok || got != want {
			t.Errorf("%s: digest %#x, pinned %#x (%v)", name, got, want, s)
		}
	}
}
