package particleio

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"godtfe/internal/geom"
)

func randPts(n int, seed int64) []geom.Vec3 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vec3, n)
	for i := range pts {
		pts[i] = geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
	}
	return pts
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.dtfe")
	pts := randPts(1000, 1)
	if err := WriteDecomposed(path, pts, 2, 2, 2); err != nil {
		t.Fatal(err)
	}
	h, err := ReadHeader(path)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumParticles != 1000 || len(h.Blocks) != 8 {
		t.Fatalf("header = %+v", h)
	}
	var total int64
	for _, b := range h.Blocks {
		total += b.Count
	}
	if total != 1000 {
		t.Fatalf("block counts sum to %d", total)
	}
	got, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1000 {
		t.Fatalf("read %d particles", len(got))
	}
	// Multiset equality via sorting by coordinates would be overkill:
	// verify per-block contents match their bounds and the total set via a
	// map keyed by exact coordinates.
	seen := map[geom.Vec3]int{}
	for _, p := range pts {
		seen[p]++
	}
	for _, p := range got {
		seen[p]--
	}
	for _, c := range seen {
		if c != 0 {
			t.Fatal("read particles are not the written multiset")
		}
	}
}

func TestBlockBounds(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.dtfe")
	pts := randPts(500, 2)
	if err := WriteDecomposed(path, pts, 3, 1, 1); err != nil {
		t.Fatal(err)
	}
	h, err := ReadHeader(path)
	if err != nil {
		t.Fatal(err)
	}
	for bi, b := range h.Blocks {
		blockPts, err := ReadBlock(path, h, bi)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(blockPts)) != b.Count {
			t.Fatalf("block %d count mismatch", bi)
		}
		for _, p := range blockPts {
			if !b.Bounds.Contains(p) {
				t.Fatalf("block %d particle outside recorded bounds", bi)
			}
		}
	}
}

func TestReadBlocksConcurrent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.dtfe")
	pts := randPts(2000, 3)
	if err := WriteDecomposed(path, pts, 4, 4, 4); err != nil {
		t.Fatal(err)
	}
	h, err := ReadHeader(path)
	if err != nil {
		t.Fatal(err)
	}
	// Read a strided assignment like rank 1 of 3 would.
	var assign []int
	for b := 1; b < len(h.Blocks); b += 3 {
		assign = append(assign, b)
	}
	got, err := ReadBlocks(path, h, assign)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, b := range assign {
		want += h.Blocks[b].Count
	}
	if int64(len(got)) != want {
		t.Fatalf("read %d, want %d", len(got), want)
	}
}

func TestBadInputs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.dtfe")
	if err := os.WriteFile(path, []byte("not a particle file at all..."), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadHeader(path); err == nil {
		t.Fatal("garbage accepted")
	}
	if err := WriteDecomposed(filepath.Join(dir, "x.dtfe"), randPts(10, 4), 0, 1, 1); err == nil {
		t.Fatal("zero block grid accepted")
	}
	good := filepath.Join(dir, "good.dtfe")
	if err := WriteDecomposed(good, randPts(10, 5), 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	h, err := ReadHeader(good)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBlock(good, h, 5); err == nil {
		t.Fatal("out-of-range block accepted")
	}
}

func TestEmptyBlocks(t *testing.T) {
	// A block grid finer than the data leaves some blocks empty.
	dir := t.TempDir()
	path := filepath.Join(dir, "sparse.dtfe")
	pts := []geom.Vec3{{X: 0.1, Y: 0.1, Z: 0.1}, {X: 0.9, Y: 0.9, Z: 0.9}}
	if err := WriteDecomposed(path, pts, 4, 4, 4); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d", len(got))
	}
}

func TestVelocitiesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.dtfe")
	pts := randPts(300, 21)
	rng := rand.New(rand.NewSource(22))
	vels := make([]geom.Vec3, len(pts))
	for i := range vels {
		vels[i] = geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
	}
	// Single block keeps the order stable for direct comparison.
	idx := make([]int32, len(pts))
	for i := range idx {
		idx[i] = int32(i)
	}
	if err := WriteWithVelocities(path, pts, vels, [][]int32{idx}); err != nil {
		t.Fatal(err)
	}
	h, err := ReadHeader(path)
	if err != nil {
		t.Fatal(err)
	}
	if !h.HasVel {
		t.Fatal("velocity flag lost")
	}
	gp, gv, err := ReadBlockVel(path, h, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if gp[i] != pts[i] || gv[i] != vels[i] {
			t.Fatalf("row %d mismatch", i)
		}
	}
	// Position-only read path still works on velocity files.
	pOnly, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pOnly) != len(pts) {
		t.Fatalf("ReadAll returned %d", len(pOnly))
	}
	// Length mismatch rejected.
	if err := WriteWithVelocities(path, pts, vels[:2], [][]int32{idx}); err == nil {
		t.Fatal("velocity length mismatch accepted")
	}
}
