package geom_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"

	"godtfe/internal/delaunay"
	"godtfe/internal/dtfe"
	"godtfe/internal/geom"
	"godtfe/internal/render"
	"godtfe/internal/synth"
)

// TestAdaptivePredicatesByteIdentical is the end-to-end gate for the
// adaptive predicate tiers: building and rendering every equivalence
// catalog must produce the same finite-tet set and a byte-identical
// output grid whether the exact fallback runs through the expansion
// tiers (production path) or the retained big.Rat oracle. Any divergence
// means an adaptive tier returned a wrong sign somewhere in the build.
func TestAdaptivePredicatesByteIdentical(t *testing.T) {
	for name, pts := range equivCatalogs() {
		t.Run(name, func(t *testing.T) {
			prev := geom.SetOracleFallback(true)
			oracleTets, oracleGrid, oraclePGM := renderFingerprint(t, pts)
			geom.SetOracleFallback(prev)
			adaptTets, adaptGrid, adaptPGM := renderFingerprint(t, pts)
			if adaptTets != oracleTets {
				t.Errorf("finite-tet set diverges from oracle predicates: %x != %x", adaptTets, oracleTets)
			}
			if adaptGrid != oracleGrid {
				t.Errorf("grid values diverge from oracle predicates: %x != %x", adaptGrid, oracleGrid)
			}
			if adaptPGM != oraclePGM {
				t.Errorf("rendered PGM diverges from oracle predicates: %x != %x", adaptPGM, oraclePGM)
			}
		})
	}
}

// equivCatalogs are the render package's equivalence-test families:
// clustered halos, an exact lattice (degenerate cosphericity, grid-aligned
// columns), and a dirty mix with duplicates and coplanar points.
func equivCatalogs() map[string][]geom.Vec3 {
	cats := make(map[string][]geom.Vec3)

	box := geom.AABB{Min: geom.Vec3{}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	cats["clustered"] = synth.HaloSet(1500, box, synth.DefaultHaloSpec(), 7)

	var lattice []geom.Vec3
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			for k := 0; k < 6; k++ {
				lattice = append(lattice, geom.Vec3{X: float64(i) / 5, Y: float64(j) / 5, Z: float64(k) / 5})
			}
		}
	}
	cats["lattice"] = lattice

	rng := rand.New(rand.NewSource(42))
	var dirty []geom.Vec3
	for len(dirty) < 300 {
		p := geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		dirty = append(dirty, p)
		if rng.Float64() < 0.2 {
			dirty = append(dirty, p) // exact duplicate
		}
		if rng.Float64() < 0.3 {
			// coplanar companion: same z, snapped x/y
			dirty = append(dirty, geom.Vec3{
				X: math.Round(p.X*4) / 4, Y: math.Round(p.Y*4) / 4, Z: p.Z,
			})
		}
	}
	cats["dirty"] = dirty
	return cats
}

func equivSpec(pts []geom.Vec3) render.Spec {
	b := geom.BoundsOf(pts)
	const n = 48
	pad := 0.02 * (b.Max.X - b.Min.X)
	w := math.Max(b.Max.X-b.Min.X, b.Max.Y-b.Min.Y) + 2*pad
	return render.Spec{
		Min: geom.Vec2{X: b.Min.X - pad, Y: b.Min.Y - pad},
		Nx:  n, Ny: n, Cell: w / n,
		Samples: 2, Seed: 5,
	}
}

// renderFingerprint builds the triangulation and renders the catalog under
// whichever predicate backend is currently selected, returning hashes of
// the sorted finite-tet vertex quadruples, the raw grid cell bits, and the
// serialized PGM byte stream.
func renderFingerprint(t *testing.T, pts []geom.Vec3) (tetHash, gridHash, pgmHash [32]byte) {
	t.Helper()
	tri, err := delaunay.New(pts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := dtfe.NewField(tri, nil)
	if err != nil {
		t.Fatal(err)
	}

	var quads [][4]int32
	f.Tri.ForEachFiniteTet(func(ti int32, tet *delaunay.Tet) {
		q := tet.V
		sort.Slice(q[:], func(i, j int) bool { return q[i] < q[j] })
		quads = append(quads, q)
	})
	sort.Slice(quads, func(i, j int) bool {
		for k := 0; k < 4; k++ {
			if quads[i][k] != quads[j][k] {
				return quads[i][k] < quads[j][k]
			}
		}
		return false
	})
	th := sha256.New()
	for _, q := range quads {
		binary.Write(th, binary.LittleEndian, q[:])
	}
	th.Sum(tetHash[:0])

	m := render.NewMarcher(f)
	g, _, err := m.Render(equivSpec(pts), 1, render.ScheduleDynamic)
	if err != nil {
		t.Fatal(err)
	}
	gh := sha256.New()
	var word [8]byte
	for _, v := range g.Data {
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
		gh.Write(word[:])
	}
	gh.Sum(gridHash[:0])

	var buf bytes.Buffer
	if err := g.WritePGM(&buf, true); err != nil {
		t.Fatal(err)
	}
	pgmHash = sha256.Sum256(buf.Bytes())
	return tetHash, gridHash, pgmHash
}
