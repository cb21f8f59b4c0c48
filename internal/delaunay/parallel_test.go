package delaunay

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"godtfe/internal/geom"
	"godtfe/internal/geomerr"
)

// dirtyCatalog is the stitcher's pathological mix: exact duplicates,
// points exactly on the internal block-boundary planes of every power-of-2
// decomposition of the unit box (x=0.5, x=0.25, ...), coplanar runs, a
// dense clump straddling the center split, and corner outliers that leave
// most blocks nearly empty.
func dirtyCatalog(n int, seed int64) []geom.Vec3 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vec3, 0, n)
	for len(pts) < n {
		switch rng.Intn(8) {
		case 0: // exact duplicate of an earlier point
			if len(pts) > 0 {
				pts = append(pts, pts[rng.Intn(len(pts))])
				continue
			}
			fallthrough
		case 1, 2: // uniform random
			pts = append(pts, geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()})
		case 3: // exactly on a split plane of a 2/4/8-block decomposition
			p := geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
			planes := []float64{0.25, 0.5, 0.75}
			switch rng.Intn(3) {
			case 0:
				p.X = planes[rng.Intn(3)]
			case 1:
				p.Y = planes[rng.Intn(3)]
			default:
				p.Z = planes[rng.Intn(3)]
			}
			pts = append(pts, p)
		case 4: // coplanar sheet fragment at z=0.5
			pts = append(pts, geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: 0.5})
		case 5: // dense clump straddling the center split
			pts = append(pts, geom.Vec3{
				X: 0.5 + 0.01*(rng.Float64()-0.5),
				Y: 0.5 + 0.01*(rng.Float64()-0.5),
				Z: 0.5 + 0.01*(rng.Float64()-0.5),
			})
		case 6: // snapped to a coarse grid: cospherical shells
			pts = append(pts, geom.Vec3{
				X: float64(rng.Intn(9)) / 8,
				Y: float64(rng.Intn(9)) / 8,
				Z: float64(rng.Intn(9)) / 8,
			})
		default: // corner outliers stretching the bounding box
			pts = append(pts, geom.Vec3{
				X: float64(rng.Intn(2)),
				Y: float64(rng.Intn(2)),
				Z: float64(rng.Intn(2)),
			})
		}
	}
	return pts
}

func testCatalogSet(n int) map[string][]geom.Vec3 {
	return map[string][]geom.Vec3{
		"clustered": clusteredPoints(n, 42),
		"random":    randomCatalog(n, 7),
		"lattice":   latticeCatalog(n),
		"snapped":   snappedCatalog(n, 11),
		"dirty":     dirtyCatalog(n, 99),
	}
}

// requireTriEqual asserts two triangulations are deeply equal but for
// BuildStats — the full bit-identity contract: same tet pool in the same
// order with the same slot orders and adjacency, same anchors, same
// duplicate mapping, same scratch reset state. Everything downstream (VertexVolumes accumulation
// order, gradient bases, SoA layout, grid and PGM bytes) is a pure
// function of this state.
func requireTriEqual(t *testing.T, want, got *Triangulation) {
	t.Helper()
	if len(want.tets) != len(got.tets) {
		t.Fatalf("tet pool size: want %d, got %d", len(want.tets), len(got.tets))
	}
	for i := range want.tets {
		if want.tets[i] != got.tets[i] {
			t.Fatalf("tet %d: want %+v, got %+v", i, want.tets[i], got.tets[i])
		}
	}
	if !reflect.DeepEqual(want.dead, got.dead) {
		t.Fatal("dead slices differ")
	}
	if !reflect.DeepEqual(want.vertTet, got.vertTet) {
		for v := range want.vertTet {
			if want.vertTet[v] != got.vertTet[v] {
				t.Fatalf("vertTet[%d]: want %d, got %d", v, want.vertTet[v], got.vertTet[v])
			}
		}
	}
	if !reflect.DeepEqual(want.dupOf, got.dupOf) {
		t.Fatal("dupOf slices differ")
	}
	if want.insertedCount != got.insertedCount {
		t.Fatalf("insertedCount: want %d, got %d", want.insertedCount, got.insertedCount)
	}
	if !meshEqual(want, got) {
		t.Fatal("triangulations differ outside the checked fields (scratch state?)")
	}
}

// meshEqual is reflect.DeepEqual with the build counters left out: they
// are the one field that records the insertion order, not the point set.
func meshEqual(a, b *Triangulation) bool {
	x, y := *a, *b
	x.build, y.build = BuildStats{}, BuildStats{}
	return reflect.DeepEqual(&x, &y)
}

// TestBuildOrderIndependence: the canonical compaction makes the build a
// pure function of the point set — BRIO insertion order and raw input
// order must produce deeply equal triangulations. This is the property the
// parallel stitcher's bit-identity rests on.
func TestBuildOrderIndependence(t *testing.T) {
	cats := testCatalogSet(900)
	maps.Copy(cats, orderCatalogSet())
	for name, pts := range cats {
		t.Run(name, func(t *testing.T) {
			a, err := New(pts)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewInputOrder(pts)
			if err != nil {
				t.Fatal(err)
			}
			requireTriEqual(t, a, b)
		})
	}
}

// TestParallelMatchesSerial is the differential gate: block-parallel
// builds must be deeply equal to the serial build over every catalog
// regime × block counts {1,2,4,8}. Run under -race this also soaks the
// worker pool.
func TestParallelMatchesSerial(t *testing.T) {
	for name, pts := range testCatalogSet(1400) {
		serial, err := New(pts)
		if err != nil {
			t.Fatalf("%s: serial build: %v", name, err)
		}
		if err := serial.Validate(); err != nil {
			t.Fatalf("%s: serial validate: %v", name, err)
		}
		for _, blocks := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/blocks=%d", name, blocks), func(t *testing.T) {
				par, err := NewWithOptions(pts, BuildOptions{
					Parallelism: 4, Blocks: blocks, MinParallel: -1,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := par.Validate(); err != nil {
					t.Fatalf("parallel validate: %v", err)
				}
				requireTriEqual(t, serial, par)
			})
		}
	}
}

// TestParallelPathIsExercised guards the differential suite against a
// trivially-passing failure mode: if the block pipeline always fell back
// to the serial builder, every parallel-vs-serial comparison would pass
// without testing anything. Assert the pipeline completes without
// fallback on clean catalogs and certifies (nearly) the whole mesh inside
// the blocks.
func TestParallelPathIsExercised(t *testing.T) {
	for _, tc := range []struct {
		name string
		pts  []geom.Vec3
	}{
		{"random", randomCatalog(3000, 17)},
		{"lattice", latticeCatalog(3375)},
		{"clustered", clusteredPoints(3000, 18)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := ReadParallelStats()
			par, err := NewWithOptions(tc.pts, BuildOptions{Parallelism: 4, Blocks: 8, MinParallel: -1})
			if err != nil {
				t.Fatal(err)
			}
			after := ReadParallelStats()
			if after.Builds != before.Builds+1 {
				t.Fatalf("block pipeline not attempted: builds %d -> %d", before.Builds, after.Builds)
			}
			if after.Fallbacks != before.Fallbacks {
				t.Fatal("block pipeline fell back to serial on a clean catalog")
			}
			nFinite := 0
			for i := range par.tets {
				if par.tets[i].V[0] != Inf {
					nFinite++
				}
			}
			acc := after.BlockAccepted - before.BlockAccepted
			rep := after.RepairTets - before.RepairTets
			fr := after.FrontierPts - before.FrontierPts
			t.Logf("%s: %d finite tets: %d block-certified, %d repaired, %d frontier points",
				tc.name, nFinite, acc, rep, fr)
			if int(acc) < nFinite/2 {
				t.Fatalf("block builds certified only %d of %d tets — pipeline degenerated to repair", acc, nFinite)
			}
		})
	}
}

// TestParallelMatchesSerialSmallExact re-runs the differential on small
// catalogs where the brute-force empty-circumsphere validator is
// affordable, proving the stitched mesh is exactly Delaunay, not just
// serial-identical.
func TestParallelMatchesSerialSmallExact(t *testing.T) {
	for name, pts := range testCatalogSet(220) {
		for _, blocks := range []int{2, 8} {
			t.Run(fmt.Sprintf("%s/blocks=%d", name, blocks), func(t *testing.T) {
				par, err := NewWithOptions(pts, BuildOptions{
					Parallelism: 4, Blocks: blocks, MinParallel: -1,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := par.ValidateDelaunay(); err != nil {
					t.Fatalf("parallel mesh not Delaunay: %v", err)
				}
				serial, err := New(pts)
				if err != nil {
					t.Fatal(err)
				}
				requireTriEqual(t, serial, par)
			})
		}
	}
}

// TestParallelGhostWidths: correctness must not depend on the ghost halo
// being wide enough — a too-narrow halo only grows the repair set. Tiny
// and huge halos must both reproduce the serial mesh.
func TestParallelGhostWidths(t *testing.T) {
	pts := dirtyCatalog(1100, 5)
	serial, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, gs := range []float64{0.25, 1.0, 6.0} {
		t.Run(fmt.Sprintf("ghost=%.2f", gs), func(t *testing.T) {
			par, err := NewWithOptions(pts, BuildOptions{
				Parallelism: 4, Blocks: 8, MinParallel: -1, GhostSpacings: gs,
			})
			if err != nil {
				t.Fatal(err)
			}
			requireTriEqual(t, serial, par)
		})
	}
}

// TestParallelBoundaryPathologies targets the stitch seams directly:
// point sets engineered to sit exactly on, or symmetrically straddle,
// block-boundary planes, including coincident pairs astride a seam.
func TestParallelBoundaryPathologies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var seam []geom.Vec3
	// A cospherical-prone plane of points exactly at x=0.5 (the 2-block
	// split plane), quantized so many are also mutually cospherical.
	for i := 0; i < 120; i++ {
		seam = append(seam, geom.Vec3{X: 0.5, Y: float64(rng.Intn(17)) / 16, Z: float64(rng.Intn(17)) / 16})
	}
	// Mirror pairs an epsilon either side of the seam.
	for i := 0; i < 80; i++ {
		y, z := rng.Float64(), rng.Float64()
		seam = append(seam,
			geom.Vec3{X: 0.5 - 1e-9, Y: y, Z: z},
			geom.Vec3{X: 0.5 + 1e-9, Y: y, Z: z})
	}
	// Coincident duplicates directly on the seam.
	for i := 0; i < 20; i++ {
		p := geom.Vec3{X: 0.5, Y: rng.Float64(), Z: rng.Float64()}
		seam = append(seam, p, p)
	}
	// Background filler so blocks are non-degenerate.
	for i := 0; i < 400; i++ {
		seam = append(seam, geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()})
	}
	serial, err := New(seam)
	if err != nil {
		t.Fatal(err)
	}
	for _, blocks := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("blocks=%d", blocks), func(t *testing.T) {
			par, err := NewWithOptions(seam, BuildOptions{
				Parallelism: 4, Blocks: blocks, MinParallel: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			requireTriEqual(t, serial, par)
		})
	}
}

// TestParallelErrorTaxonomy: the parallel entry point must honor the same
// typed-error contract as New, and fall back (not fail) on inputs the
// block pipeline cannot decompose.
func TestParallelErrorTaxonomy(t *testing.T) {
	if _, err := NewParallel(nil, 8); !errors.Is(err, geomerr.ErrDegenerateInput) {
		t.Fatalf("empty input: %v", err)
	}
	bad := randomCatalog(5000, 1)
	bad[1234].X = nan()
	if _, err := NewParallel(bad, 8); !errors.Is(err, geomerr.ErrDegenerateInput) || !errors.Is(err, geomerr.ErrBadParticle) {
		t.Fatalf("non-finite input: %v", err)
	}
	// Coplanar input must report degeneracy through the serial fallback.
	var sheet []geom.Vec3
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 5000; i++ {
		sheet = append(sheet, geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: 0.25})
	}
	if _, err := NewWithOptions(sheet, BuildOptions{Parallelism: 4, MinParallel: -1}); !errors.Is(err, geomerr.ErrDegenerateInput) {
		t.Fatalf("coplanar input: %v", err)
	}
	// All-duplicate input collapses below four canonical points.
	dup := make([]geom.Vec3, 5000)
	for i := range dup {
		dup[i] = geom.Vec3{X: 1, Y: 2, Z: 3}
	}
	if _, err := NewParallel(dup, 8); !errors.Is(err, geomerr.ErrDegenerateInput) {
		t.Fatalf("all-duplicates input: %v", err)
	}
}

func nan() float64 {
	var z float64
	return z / z
}

// TestParallelBelowThresholdIsSerial: below MinParallel the serial builder
// runs directly; the result must still be identical (it is the same code).
func TestParallelBelowThresholdIsSerial(t *testing.T) {
	pts := clusteredPoints(300, 9)
	serial, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewParallel(pts, 8) // 300 < default MinParallel
	if err != nil {
		t.Fatal(err)
	}
	requireTriEqual(t, serial, par)
}

// TestChaosParallelBuildSoak hammers the worker pool under the race
// detector: many concurrent NewWithOptions calls sharing the same
// read-only point slices, with mixed block counts, all compared against
// their serial builds. Any shared mutable scratch between block builds
// (the satellite audit's subject) shows up here under -race.
func TestChaosParallelBuildSoak(t *testing.T) {
	catalogs := map[string][]geom.Vec3{
		"clustered": clusteredPoints(700, 21),
		"dirty":     dirtyCatalog(700, 22),
		"snapped":   snappedCatalog(700, 23),
	}
	serials := make(map[string]*Triangulation)
	for name, pts := range catalogs {
		s, err := New(pts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		serials[name] = s
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for name, pts := range catalogs {
		for rep := 0; rep < 3; rep++ {
			for _, blocks := range []int{2, 8} {
				wg.Add(1)
				go func(name string, pts []geom.Vec3, blocks int) {
					defer wg.Done()
					par, err := NewWithOptions(pts, BuildOptions{
						Parallelism: 3, Blocks: blocks, MinParallel: -1,
					})
					if err != nil {
						errs <- fmt.Errorf("%s/blocks=%d: %v", name, blocks, err)
						return
					}
					want := serials[name]
					if len(par.tets) != len(want.tets) {
						errs <- fmt.Errorf("%s/blocks=%d: pool size %d != %d", name, blocks, len(par.tets), len(want.tets))
						return
					}
					for i := range want.tets {
						if want.tets[i] != par.tets[i] {
							errs <- fmt.Errorf("%s/blocks=%d: tet %d differs", name, blocks, i)
							return
						}
					}
				}(name, pts, blocks)
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestParallelVertexVolumesBitIdentical pins the downstream FP contract
// explicitly: the DTFE density denominators (an order-sensitive float
// accumulation over the tet pool) must be bitwise equal between serial and
// parallel builds — this is what propagates to grids and PGM hashes.
func TestParallelVertexVolumesBitIdentical(t *testing.T) {
	pts := dirtyCatalog(2000, 31)
	serial, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewWithOptions(pts, BuildOptions{Parallelism: 4, Blocks: 8, MinParallel: -1})
	if err != nil {
		t.Fatal(err)
	}
	sv, sh := serial.VertexVolumes()
	pv, ph := par.VertexVolumes()
	for i := range sv {
		if sv[i] != pv[i] { // bitwise: no tolerance
			t.Fatalf("vertex %d volume: serial %x, parallel %x", i, sv[i], pv[i])
		}
		if sh[i] != ph[i] {
			t.Fatalf("vertex %d hull flag differs", i)
		}
	}
}
