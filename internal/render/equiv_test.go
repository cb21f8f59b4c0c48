package render

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"godtfe/internal/delaunay"
	"godtfe/internal/dtfe"
	"godtfe/internal/geom"
	"godtfe/internal/grid"
	"godtfe/internal/synth"
)

// equivCatalogs builds the three catalog families the equivalence tests
// run over: clustered (halo profiles), an exact lattice (grid-aligned
// columns strike vertices and edges), and a dirty mix (duplicates and
// coplanar points).
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

func equivSpec(pts []geom.Vec3) Spec {
	b := geom.BoundsOf(pts)
	const n = 48
	pad := 0.02 * (b.Max.X - b.Min.X)
	w := math.Max(b.Max.X-b.Min.X, b.Max.Y-b.Min.Y) + 2*pad
	return Spec{
		Min: geom.Vec2{X: b.Min.X - pad, Y: b.Min.Y - pad},
		Nx:  n, Ny: n, Cell: w / n,
		Samples: 2, Seed: 5,
	}
}

// columnRender is Render spelled out one Column call at a time: the same
// cell centres and jitter as renderInto, every line of sight marched on
// its own.
func columnRender(m *Marcher, spec Spec) (*grid.Grid2D, OutcomeCounts, int64) {
	out := spec.Grid()
	samples := max(spec.Samples, 1)
	var outcomes OutcomeCounts
	var steps int64
	for j := 0; j < spec.Ny; j++ {
		for i := 0; i < spec.Nx; i++ {
			var acc float64
			for s := 0; s < samples; s++ {
				xi := geom.Vec2{
					X: spec.Min.X + (float64(i)+0.5)*spec.Cell,
					Y: spec.Min.Y + (float64(j)+0.5)*spec.Cell,
				}
				if samples > 1 {
					xi.X += (jitter(spec.Seed, i, j, s, 0) - 0.5) * spec.Cell
					xi.Y += (jitter(spec.Seed, i, j, s, 1) - 0.5) * spec.Cell
				}
				sigma, n, outcome := m.Column(xi, spec.ZMin, spec.ZMax)
				acc += sigma
				steps += int64(n)
				outcomes.Note(outcome)
			}
			out.Set(i, j, acc/float64(samples))
		}
	}
	return out, outcomes, steps
}

// TestEntryModesEquivalence is the column-loop bit-identity gate on the
// jittered full-chord spec: on every catalog family Render must produce
// byte-for-byte the grid, the per-column outcome tallies and the total
// step count of per-column Column calls (columnRender) — serially and on
// 2 and 4 workers. The name predates the single entry locator; the check
// is what it always guarded, the render loop against stateless columns.
func TestEntryModesEquivalence(t *testing.T) {
	for name, pts := range equivCatalogs() {
		t.Run(name, func(t *testing.T) {
			checkRenderMatchesColumns(t, NewMarcher(fieldFor(t, pts)), equivSpec(pts))
		})
	}
}

// TestEntryModesSameRender is the same gate on a clipped 24x24 grid with
// z in [0, 1], so the clip exits and partial chords go through it too.
func TestEntryModesSameRender(t *testing.T) {
	for name, pts := range equivCatalogs() {
		t.Run(name, func(t *testing.T) {
			spec := Spec{Min: geom.Vec2{X: 0.1, Y: 0.1}, Nx: 24, Ny: 24, Cell: 0.8 / 24, ZMin: 0, ZMax: 1}
			checkRenderMatchesColumns(t, NewMarcher(fieldFor(t, pts)), spec)
		})
	}
}

// checkRenderMatchesColumns requires Render on 1, 2 and 4 workers to equal
// columnRender exactly: grid bits, outcome tallies and total steps.
func checkRenderMatchesColumns(t *testing.T, m *Marcher, spec Spec) {
	t.Helper()
	ref, refOutcomes, refSteps := columnRender(m, spec)
	for _, workers := range []int{1, 2, 4} {
		g, stats, err := m.Render(spec, workers, ScheduleDynamic)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range g.Data {
			if math.Float64bits(v) != math.Float64bits(ref.Data[i]) { // exact: no tolerance
				t.Fatalf("workers %d: cell %d differs: %g != %g", workers, i, v, ref.Data[i])
			}
		}
		if got := TotalOutcomes(stats); got != refOutcomes {
			t.Errorf("workers %d: outcomes %v != %v", workers, got, refOutcomes)
		}
		var steps int64
		for _, s := range stats {
			steps += s.Steps
		}
		if steps != refSteps {
			t.Errorf("workers %d: steps %d != %d", workers, steps, refSteps)
		}
	}
}

// refTryColumn reproduces the pre-SoA march verbatim: entry through the
// bucket index, exit faces through the gather-based exitVertical, density
// through dtfe.Field.Interpolate, hull exits through Tri.IsInfinite. It is
// the pinned reference for TestMarchMatchesReference: the SoA fast path in
// tryColumn must agree with it bit for bit. f is the field m was built
// from, which the Marcher itself does not keep.
func (m *Marcher) refTryColumn(f *dtfe.Field, xi geom.Vec2, zmin, zmax float64) (sigma float64, steps int, badTet int32, ok bool) {
	fi := m.entry.find(xi)
	if fi < 0 {
		return 0, 0, -1, true
	}
	ef := &m.entry.faces[fi]
	clip := zmin < zmax
	ray := geom.PluckerFromRay(geom.Vec3{X: xi.X, Y: xi.Y, Z: 0}, geom.Vec3{Z: 1})
	zPrev, entryOK := crossZ(ray, ef.a, ef.b, ef.c, +1)
	if !entryOK {
		return 0, 0, ef.behind, false
	}
	cur := ef.behind
	tets := f.Tri.Tets()
	pts := f.Tri.Points()
	maxSteps := len(tets) + 16
	for ; steps < maxSteps; steps++ {
		tt := &tets[cur]
		exitFace, zExit, ok := exitVertical(tt, pts, xi)
		if !ok {
			return sigma, steps, cur, false
		}
		lo, hi := zPrev, zExit
		if clip {
			if lo < zmin {
				lo = zmin
			}
			if hi > zmax {
				hi = zmax
			}
		}
		if hi > lo {
			mid := geom.Vec3{X: xi.X, Y: xi.Y, Z: (lo + hi) / 2}
			sigma += f.Interpolate(cur, mid) * (hi - lo)
		}
		next := tt.N[exitFace]
		if f.Tri.IsInfinite(next) {
			return sigma, steps + 1, -1, true
		}
		if clip && zExit >= zmax {
			return sigma, steps + 1, -1, true
		}
		zPrev = zExit
		cur = next
	}
	return sigma, steps, cur, false
}

// refPerturb is Marcher.perturb as it read the triangulation before the
// Marcher stopped keeping one: the same nudge, from f.Tri's slots.
func (m *Marcher) refPerturb(f *dtfe.Field, xi geom.Vec2, tet int32, attempt int) geom.Vec2 {
	eps := m.eps * float64(uint(1)<<uint(min(attempt, 20)))
	pts := f.Tri.Points()
	if tet >= 0 {
		tt := &f.Tri.Tets()[tet]
		for k := 0; k < 4; k++ {
			v := tt.V[(k+attempt)&3]
			if v == delaunay.Inf {
				continue
			}
			delta := pts[v].XY().Sub(xi)
			n := delta.Norm()
			if n == 0 {
				continue
			}
			if n > eps {
				delta = delta.Scale(eps / n)
			}
			return xi.Add(delta)
		}
	}
	return xi.Add(geom.Vec2{X: eps, Y: eps * 0.7071067811865476})
}

// refColumn mirrors Marcher.Column on top of refTryColumn and refPerturb
// (same perturb-retry ladder, same fallback), so whole-column results are
// comparable exactly.
func (m *Marcher) refColumn(f *dtfe.Field, xi geom.Vec2, zmin, zmax float64) (float64, int, ColumnOutcome) {
	if !xi.IsFinite() {
		return 0, 0, ColumnAbandoned
	}
	ladder := func(base int) (float64, int, int, bool) {
		var sigma float64
		var steps int
		x := xi
		for attempt := 0; ; attempt++ {
			s, n, badTet, ok := m.refTryColumn(f, x, zmin, zmax)
			steps += n
			sigma = s
			if ok {
				return sigma, steps, attempt, true
			}
			if attempt >= maxRetries {
				return sigma, steps, attempt, false
			}
			x = m.refPerturb(f, x, badTet, base+attempt)
		}
	}
	sigma, steps, attempts, ok := ladder(0)
	if ok {
		if attempts == 0 {
			return sigma, steps, ColumnClean
		}
		return sigma, steps, ColumnPerturbed
	}
	fsigma, fsteps, _, fok := ladder(maxRetries + 1)
	steps += fsteps
	if fok {
		return fsigma, steps, ColumnFallback
	}
	if fsigma > sigma {
		sigma = fsigma
	}
	return sigma, steps, ColumnAbandoned
}

// TestMarchMatchesReference pins the SoA rewrite to the original
// pointer-chasing implementation: for every catalog family, Column (the
// SoA fast path) must return bit-identical sigma, identical step counts,
// and identical outcomes to the verbatim pre-SoA reference on a dense set
// of probe lines, including grid-aligned lines through lattice vertices
// and edges.
func TestMarchMatchesReference(t *testing.T) {
	for name, pts := range equivCatalogs() {
		t.Run(name, func(t *testing.T) {
			f := fieldFor(t, pts)
			m := NewMarcher(f)
			b := geom.BoundsOf(pts)
			rng := rand.New(rand.NewSource(11))
			var probes []geom.Vec2
			for i := 0; i < 500; i++ {
				probes = append(probes, geom.Vec2{
					X: b.Min.X + rng.Float64()*(b.Max.X-b.Min.X)*1.04 - 0.02,
					Y: b.Min.Y + rng.Float64()*(b.Max.Y-b.Min.Y)*1.04 - 0.02,
				})
			}
			// Grid-aligned probes: exact vertex/edge strikes on the lattice.
			for i := 0; i < 6; i++ {
				for j := 0; j < 6; j++ {
					probes = append(probes, geom.Vec2{X: float64(i) / 5, Y: float64(j) / 5})
				}
			}
			for _, clip := range [][2]float64{{0, 0}, {0.2, 0.8}} {
				for _, xi := range probes {
					gotS, gotN, gotO := m.Column(xi, clip[0], clip[1])
					refS, refN, refO := m.refColumn(f, xi, clip[0], clip[1])
					if gotS != refS || gotN != refN || gotO != refO {
						t.Fatalf("xi=%v clip=%v: got (Σ=%v steps=%d %v), ref (Σ=%v steps=%d %v)",
							xi, clip, gotS, gotN, gotO, refS, refN, refO)
					}
				}
			}
		})
	}
}

// TestColumnZeroAllocs enforces the hot-loop allocation budget: a Column
// call (entry location + full march) performs zero heap allocations.
func TestColumnZeroAllocs(t *testing.T) {
	pts := synth.HaloSet(2000, geom.AABB{Max: geom.Vec3{X: 1, Y: 1, Z: 1}}, synth.DefaultHaloSpec(), 3)
	f := fieldFor(t, pts)
	m := NewMarcher(f)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		xi := geom.Vec2{X: 0.1 + 0.0017*float64(i%400), Y: 0.2 + 0.0013*float64(i%350)}
		i++
		m.Column(xi, 0, 0)
	})
	if allocs != 0 {
		t.Fatalf("Column allocates: %v allocs/op", allocs)
	}
}

// TestMarcherBytes pins the record sizes Marcher.Bytes counts, and that the
// count covers at least the SoA records and the positions.
func TestMarcherBytes(t *testing.T) {
	if s := [3]uintptr{unsafe.Sizeof(soaTet{}), unsafe.Sizeof(geom.Vec3{}), unsafe.Sizeof(entryFace{})}; s != [3]uintptr{64, 24, 128} {
		t.Fatalf("soaTet, Vec3, entryFace sizes %v; Marcher.Bytes counts 64, 24, 128", s)
	}
	pts := equivCatalogs()["clustered"]
	m := NewMarcher(fieldFor(t, pts))
	if min := 64*len(m.soa.tets) + 24*len(pts); m.Bytes() < min {
		t.Fatalf("Bytes() = %d, below the %d of records and positions", m.Bytes(), min)
	}
}
