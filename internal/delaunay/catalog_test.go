package delaunay

import (
	"errors"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"godtfe/internal/geom"
	"godtfe/internal/geomerr"
)

// dirtyCatalog is the pathological mix: exact duplicates, points exactly
// on the half and quarter planes of the unit box, coplanar runs, a dense
// clump straddling the center, and corner outliers that leave most of the
// box nearly empty.
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
		case 3: // exactly on a half or quarter plane
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
		case 5: // dense clump straddling the center
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

// seamCatalog sits exactly on, or symmetrically astride, the plane x = 0.5:
// a quantised sheet (many points mutually cospherical), mirror pairs 1e-9
// either side of it, coincident pairs on it, and uniform filler.
func seamCatalog() []geom.Vec3 {
	rng := rand.New(rand.NewSource(3))
	var seam []geom.Vec3
	for i := 0; i < 120; i++ {
		seam = append(seam, geom.Vec3{X: 0.5, Y: float64(rng.Intn(17)) / 16, Z: float64(rng.Intn(17)) / 16})
	}
	for i := 0; i < 80; i++ {
		y, z := rng.Float64(), rng.Float64()
		seam = append(seam,
			geom.Vec3{X: 0.5 - 1e-9, Y: y, Z: z},
			geom.Vec3{X: 0.5 + 1e-9, Y: y, Z: z})
	}
	for i := 0; i < 20; i++ {
		p := geom.Vec3{X: 0.5, Y: rng.Float64(), Z: rng.Float64()}
		seam = append(seam, p, p)
	}
	for i := 0; i < 400; i++ {
		seam = append(seam, geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()})
	}
	return seam
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
// order must produce deeply equal triangulations. This is the property
// ApplyDelta's update-equals-rebuild contract rests on.
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

// TestSeamCatalogDelaunayProperty: the mesh of the seam catalog is exactly
// Delaunay by the brute-force empty-circumsphere check, not only
// order-independent.
func TestSeamCatalogDelaunayProperty(t *testing.T) {
	tri := buildOrFatal(t, seamCatalog())
	if err := tri.ValidateDelaunay(); err != nil {
		t.Fatal(err)
	}
}

// TestNewErrorTaxonomy: New reports every input it cannot triangulate
// through the typed-error contract, at sizes where BRIO rounds run.
func TestNewErrorTaxonomy(t *testing.T) {
	if _, err := New(nil); !errors.Is(err, geomerr.ErrDegenerateInput) {
		t.Fatalf("empty input: %v", err)
	}
	bad := randomCatalog(5000, 1)
	bad[1234].X = math.NaN()
	if _, err := New(bad); !errors.Is(err, geomerr.ErrDegenerateInput) || !errors.Is(err, geomerr.ErrBadParticle) {
		t.Fatalf("non-finite input: %v", err)
	}
	var sheet []geom.Vec3
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 5000; i++ {
		sheet = append(sheet, geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: 0.25})
	}
	if _, err := New(sheet); !errors.Is(err, geomerr.ErrDegenerateInput) {
		t.Fatalf("coplanar input: %v", err)
	}
	// All-duplicate input collapses below four canonical points.
	dup := make([]geom.Vec3, 5000)
	for i := range dup {
		dup[i] = geom.Vec3{X: 1, Y: 2, Z: 3}
	}
	if _, err := New(dup); !errors.Is(err, geomerr.ErrDegenerateInput) {
		t.Fatalf("all-duplicates input: %v", err)
	}
}
