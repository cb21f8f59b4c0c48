package delaunay

import (
	"errors"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"godtfe/internal/geom"
	"godtfe/internal/geomerr"
)

// restoreInput is what a resident mesh keeps of t, in Restore's form: the
// finite prefix of the pool with hull neighbours NoTet (capacity for the
// whole pool, as render.Marcher.Mesh hands it over), and the duplicate
// table.
func restoreInput(t *Triangulation) ([]Tet, []int32) {
	finite := make([]Tet, t.finite, len(t.tets))
	copy(finite, t.tets)
	for i := range finite {
		for k, nb := range finite[i].N {
			if nb >= int32(t.finite) {
				finite[i].N[k] = NoTet
			}
		}
	}
	return finite, slices.Clone(t.dupOf)
}

// restoreOrFatal restores t from its resident form and asserts the result
// is t again.
func restoreOrFatal(t *testing.T, tri *Triangulation) *Triangulation {
	t.Helper()
	finite, dup := restoreInput(tri)
	got, err := Restore(tri.pts, dup, finite)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	requireTriEqual(t, tri, got)
	return got
}

// restoreDelta removes every 97th point (up to eight) and adds four
// points inside the bounding box, one of them an exact duplicate of a
// surviving point.
func restoreDelta(pts []geom.Vec3, seed int64) Delta {
	rng := rand.New(rand.NewSource(seed))
	var d Delta
	for i := 3; i < len(pts) && len(d.Remove) < 8; i += 97 {
		d.Remove = append(d.Remove, i)
	}
	b := geom.BoundsOf(pts)
	sz := b.Size()
	for k := 0; k < 3; k++ {
		d.Add = append(d.Add, geom.Vec3{
			X: b.Min.X + (0.1+0.8*rng.Float64())*sz.X,
			Y: b.Min.Y + (0.1+0.8*rng.Float64())*sz.Y,
			Z: b.Min.Z + (0.1+0.8*rng.Float64())*sz.Z,
		})
	}
	d.Add = append(d.Add, pts[1])
	return d
}

// TestRestoreMatchesBuild: on every regime of the build suites the mesh
// restored from its finite tets is deeply equal to New's, and ApplyDelta
// on the restored receiver equals ApplyDelta on the original and New of
// the edited points, with the same DeltaStats.
func TestRestoreMatchesBuild(t *testing.T) {
	cats := testCatalogSet(900)
	maps.Copy(cats, orderCatalogSet())
	for name, pts := range cats {
		t.Run(name, func(t *testing.T) {
			orig := buildOrFatal(t, pts)
			restored := restoreOrFatal(t, orig)

			d := restoreDelta(pts, 5)
			want, err := New(applyOracle(pts, d))
			if err != nil {
				t.Fatal(err)
			}
			fromOrig, origSt, err := orig.ApplyDelta(d)
			if err != nil {
				t.Fatal(err)
			}
			fromRestored, restSt, err := restored.ApplyDelta(d)
			if err != nil {
				t.Fatal(err)
			}
			requireTriEqual(t, want, fromOrig)
			requireTriEqual(t, want, fromRestored)
			if !reflect.DeepEqual(origSt, restSt) {
				t.Fatalf("DeltaStats differ: original %+v, restored %+v", origSt, restSt)
			}
		})
	}
}

// TestRestoreRejectsCorruptMesh: hand-corrupted resident meshes are
// refused with ErrMeshCorrupt, never a panic or a mesh.
func TestRestoreRejectsCorruptMesh(t *testing.T) {
	tri := buildOrFatal(t, clusteredPoints(400, 3))
	hullSlot := func(finite []Tet) (int, int) {
		for i := range finite {
			for k, nb := range finite[i].N {
				if nb == NoTet {
					return i, k
				}
			}
		}
		t.Fatal("no hull face")
		return 0, 0
	}
	cases := map[string]func(finite []Tet, dup []int32){
		// An interior face's neighbour moved to another tet: neither the
		// new neighbour nor the old one names it back.
		"non-reciprocal neighbour": func(finite []Tet, _ []int32) {
			for i := range finite {
				if nb := finite[i].N[0]; nb != NoTet {
					finite[i].N[0] = (nb + 1) % int32(len(finite))
					return
				}
			}
		},
		// A hull face's tet names itself as the neighbour across it:
		// reciprocal over the same face, but the face drops out of the hull,
		// so each of its edges is seen by an odd number of hull faces.
		"hull edge seen an odd number of times": func(finite []Tet, _ []int32) {
			i, k := hullSlot(finite)
			finite[i].N[k] = int32(i)
		},
		"vertex out of range": func(finite []Tet, _ []int32) {
			finite[7].V[2] = int32(len(tri.pts))
		},
		"neighbour out of range": func(finite []Tet, _ []int32) {
			finite[7].N[1] = int32(len(finite))
		},
		"duplicate in a tet": func(finite []Tet, dup []int32) {
			dup[finite[7].V[0]] = finite[7].V[1]
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			finite, dup := restoreInput(tri)
			corrupt(finite, dup)
			got, err := Restore(tri.pts, dup, finite)
			if !errors.Is(err, geomerr.ErrMeshCorrupt) || got != nil {
				t.Fatalf("Restore = %v, %v; want ErrMeshCorrupt", got, err)
			}
		})
	}
	if _, err := Restore(tri.pts, tri.dupOf[1:], nil); !errors.Is(err, geomerr.ErrMeshCorrupt) {
		t.Fatalf("short duplicate table: %v", err)
	}
	if _, err := Restore(tri.pts, slices.Clone(tri.dupOf), nil); !errors.Is(err, geomerr.ErrMeshCorrupt) {
		t.Fatalf("no tets: %v", err)
	}
}
