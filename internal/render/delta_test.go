package render

import (
	"math"
	"math/rand"
	"testing"

	"godtfe/internal/delaunay"
	"godtfe/internal/dtfe"
	"godtfe/internal/geom"
)

// Render-level contracts of delaunay.ApplyDelta:
//
//  1. Bit-identity: a render of the updated mesh is byte-identical to a
//     render of a from-scratch mesh of the same points (the triangulations
//     are deeply equal, so everything downstream must be too).
//  2. Dirty-column soundness: any column whose x-range does NOT intersect
//     DeltaStats.DirtyX renders bit-identically on the OLD and NEW meshes.
//     This is the property the serving layer's cache-invalidation relies
//     on — surviving cache entries are served for the new epoch without
//     re-marching.

func renderGrid(t *testing.T, tri *delaunay.Triangulation, spec Spec) []float64 {
	t.Helper()
	f, err := dtfe.NewField(tri, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := NewMarcher(f).Render(spec, 1, ScheduleDynamic)
	if err != nil {
		t.Fatal(err)
	}
	return g.Data
}

func TestDeltaRenderBitIdentityAndDirtySoundness(t *testing.T) {
	cats := equivCatalogs()
	cats["uniform"] = randPoints(1600, 12)
	// Exact lattice: every tet spans at most one cell, so Delaunay
	// locality actually holds and the dirty band stays narrow. Exactly
	// coplanar boundary sheets cannot form finite tets, which is what
	// rules out the box-spanning slivers. (Uniform-random and even
	// jittered catalogs do NOT guarantee this: near-coplanar layers by
	// the hull form slivers with box-spanning circumspheres, so central
	// churn can legitimately dirty far columns.)
	{
		const m = 12
		var lat []geom.Vec3
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				for k := 0; k < m; k++ {
					lat = append(lat, geom.Vec3{
						X: float64(i) / (m - 1),
						Y: float64(j) / (m - 1),
						Z: float64(k) / (m - 1),
					})
				}
			}
		}
		cats["exact-lattice"] = lat
	}
	for name, pts := range cats {
		name, pts := name, pts
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tri, err := delaunay.New(pts)
			if err != nil {
				t.Fatal(err)
			}
			spec := equivSpec(pts)
			oldData := renderGrid(t, tri, spec)

			// Churn confined to the box interior (so the bounding box —
			// and with it the marcher's degeneracy epsilon — is unchanged)
			// and localized to a narrow x-band around the center, so the
			// dirty region is a band and most columns are provably clean.
			rng := rand.New(rand.NewSource(int64(len(name))))
			b := geom.BoundsOf(pts)
			cx := 0.5 * (b.Min.X + b.Max.X)
			band := 0.08 * (b.Max.X - b.Min.X)
			var d delaunay.Delta
			var candidates []int
			for i, p := range pts {
				interior := p.X > b.Min.X && p.X < b.Max.X && p.Y > b.Min.Y && p.Y < b.Max.Y && p.Z > b.Min.Z && p.Z < b.Max.Z
				if interior && math.Abs(p.X-cx) < band {
					candidates = append(candidates, i)
				}
			}
			if len(candidates) < 4 {
				t.Skipf("only %d candidates in the churn band", len(candidates))
			}
			rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
			d.Remove = candidates[:min(len(candidates), len(pts)/20+1)]
			for i := 0; i < len(d.Remove); i++ {
				d.Add = append(d.Add, geom.Vec3{
					X: cx + band*(2*rng.Float64()-1),
					Y: b.Min.Y + (0.1+0.8*rng.Float64())*(b.Max.Y-b.Min.Y),
					Z: b.Min.Z + (0.1+0.8*rng.Float64())*(b.Max.Z-b.Min.Z),
				})
			}

			upd, st, err := tri.ApplyDelta(d)
			if err != nil {
				t.Fatal(err)
			}
			newData := renderGrid(t, upd, spec)

			// (1) Post-update render ≡ fresh-mesh render, bit for bit.
			rm := make(map[int]bool)
			for _, r := range d.Remove {
				rm[r] = true
			}
			var final []geom.Vec3
			for i, p := range pts {
				if !rm[i] {
					final = append(final, p)
				}
			}
			final = append(final, d.Add...)
			fresh, err := delaunay.New(final)
			if err != nil {
				t.Fatal(err)
			}
			freshData := renderGrid(t, fresh, spec)
			for i := range newData {
				if math.Float64bits(newData[i]) != math.Float64bits(freshData[i]) {
					t.Fatalf("cell %d: post-update render %x differs from fresh-mesh render %x",
						i, math.Float64bits(newData[i]), math.Float64bits(freshData[i]))
				}
			}

			// (2) Non-dirty columns are bit-identical across the update.
			if st.DirtyAll {
				t.Fatalf("interior churn should not dirty everything: %+v", st)
			}
			clean := 0
			for i := 0; i < spec.Nx; i++ {
				lo := spec.Min.X + float64(i)*spec.Cell
				hi := spec.Min.X + float64(i+1)*spec.Cell
				if st.DirtyIntersects(lo, hi) {
					continue
				}
				clean++
				for j := 0; j < spec.Ny; j++ {
					o, n := oldData[j*spec.Nx+i], newData[j*spec.Nx+i]
					if math.Float64bits(o) != math.Float64bits(n) {
						t.Fatalf("clean column %d row %d changed across update: %x -> %x",
							i, j, math.Float64bits(o), math.Float64bits(n))
					}
				}
			}
			// The exact lattice has bounded tet extents, so banded churn
			// must leave most columns provably clean — the non-vacuousness
			// anchor for the soundness check above. Other catalogs may
			// legitimately dirty everything (voids and hull slivers span
			// the box, and those tets really do change under churn).
			if name == "exact-lattice" && clean < spec.Nx/4 {
				t.Fatalf("banded churn left only %d/%d provably-clean columns: %+v", clean, spec.Nx, st)
			}
			t.Logf("%s: %d/%d columns provably clean, %d dirty intervals, %d star repairs",
				name, clean, spec.Nx, len(st.DirtyX), st.StarRepairs)
		})
	}
}
