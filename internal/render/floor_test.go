package render

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"godtfe/internal/delaunay"
	"godtfe/internal/dtfe"
	"godtfe/internal/geom"
)

// floorCase is one floor-start regime: a catalog and a clipped grid over it.
type floorCase struct {
	name string
	pts  []geom.Vec3
	spec Spec
	// floor: some line must start at its floor; hull: some line must enter
	// through the hull; below: the catalog has degenerate points, and
	// checkFloorStart may excuse lines.
	floor, hull, below bool
}

// floorCases are the floor-start regimes: the three equivalence catalogs
// clipped from the lattice plane z = 0.4 (the lattice's floor then holds
// its faces, edges and vertices) on a 48² grid and on a grid whose centres
// lie on lattice lines (every line runs through lattice edges or
// vertices); a floor below the mesh, a floor just above the lowest vertex
// (most lines' lower hull lies above it), a floor above the mesh and an
// unbounded one.
func floorCases() []floorCase {
	cats := equivCatalogs()
	var cases []floorCase
	for _, name := range []string{"clustered", "dirty", "lattice"} {
		pts := cats[name]
		spec := equivSpec(pts)
		spec.Samples, spec.ZMin, spec.ZMax = 1, 0.4, 0.8
		aligned := Spec{Min: geom.Vec2{X: -0.1, Y: -0.1}, Nx: 7, Ny: 7, Cell: 0.2, ZMin: 0.4, ZMax: 1}
		cases = append(cases,
			floorCase{name: name, pts: pts, spec: spec, floor: true, below: name != "clustered"},
			floorCase{name: name + "/aligned", pts: pts, spec: aligned, floor: name != "lattice", hull: name == "lattice", below: name != "clustered"})
	}
	pts := cats["clustered"]
	low := geom.BoundsOf(pts).Min.Z
	spec := equivSpec(pts)
	spec.Samples = 1
	for _, c := range []struct {
		name       string
		zmin, zmax float64
	}{{"below-mesh", low - 0.1, 0.5}, {"at-lowest", low, 0.5}, {"above-lower-hull", low + 1e-3, 0.5}, {"above-mesh", 1.5, 2}, {"unbounded", math.Inf(-1), 0.5}} {
		spec.ZMin, spec.ZMax = c.zmin, c.zmax
		cases = append(cases, floorCase{name: c.name, pts: pts, spec: spec, floor: c.name == "above-lower-hull", hull: true})
	}
	return cases
}

// hullChain replays one hull-entry march of the line through xi without
// clip or perturbation: the tets it visits and the z it leaves each at,
// ok=false when it met a degeneracy.
func hullChain(m *Marcher, xi geom.Vec2) (tets []int32, exits []float64, ok bool) {
	fi := m.entry.find(xi)
	if fi < 0 {
		return nil, nil, true
	}
	f := &m.entry.faces[fi]
	if _, ok := crossZ(geom.PluckerFromRay(geom.Vec3{X: xi.X, Y: xi.Y}, geom.Vec3{Z: 1}), f.a, f.b, f.c, +1); !ok {
		return nil, nil, false
	}
	for t := f.behind; t >= 0 && len(tets) < m.maxSteps; {
		v := m.soa.verts(t)
		face, z, ok := exitVerticalVerts(&v, xi)
		if !ok {
			return tets, exits, false
		}
		tets, exits = append(tets, t), append(exits, z)
		t = m.soa.tets[t].N[face]
	}
	return tets, exits, true
}

// checkFloorStart holds every line of c's spec, started at its floor,
// against the hull-entry Column and the hull-entry march's chain of tets:
//
//   - a line whose first hull-entry march is clean starts, if at all, at a
//     tet of that chain whose exit z lies at or below the floor, and takes
//     exactly the chain's steps from there: Σ bits and outcome equal
//     Column's;
//   - any other line equals Column in Σ bits and outcome.
//
// Two kinds of line are excused and counted, on catalogs with degenerate
// points only (c.below): a line whose hull-entry march met a degeneracy
// below the floor (its first attempt failed before its first term, while
// the floor start, which marches the same tets from P on, would fail at
// the same tet), so that Column's Σ is a perturbed line's; and a line
// whose hull-entry exits rise above the floor and fall back below it
// before P, so that Column adds terms the floor start skips: rounding on a
// face at the floor, or a face nearly holding the line, whose exit z is
// ill-conditioned (DESIGN §7). Render on 1, 2 and 4
// workers repeats the floor-started lines in bits, outcomes and summed
// steps. It returns how many lines started at the floor, entered through
// the hull, and were excused.
func checkFloorStart(t *testing.T, m *Marcher, c floorCase) (floor, hull, excused int) {
	t.Helper()
	spec := c.spec
	fl := newFloorIndex(m, spec)
	ref := spec.Grid()
	var outcomes OutcomeCounts
	var steps int64
	above := func(z float64) bool { return z > spec.ZMin }
	for j := 0; j < spec.Ny; j++ {
		for i := 0; i < spec.Nx; i++ {
			xi := cellLine(spec, i, j, 0)
			hs, hn, ho := m.Column(xi, spec.ZMin, spec.ZMax)
			fs, fn, fo := m.column(xi, spec.ZMin, spec.ZMax, fl)
			ref.Set(i, j, fs)
			steps += int64(fn)
			outcomes.Note(fo)
			chain, exits, clean := hullChain(m, xi)
			p := int32(-1)
			if fl != nil {
				p = fl.start(m, xi)
			}
			if p < 0 {
				hull++
			} else {
				floor++
			}
			if k := slices.Index(chain, p); p >= 0 && clean {
				switch {
				case k < 0 || above(exits[k]):
					t.Fatalf("line %v: starts at tet %d, not a tet of the hull-entry chain %v below the floor (exits %v)", xi, p, chain, exits)
				case slices.ContainsFunc(exits[:k], above):
					if !c.below {
						t.Fatalf("line %v: the hull-entry exits %v rise above the floor before tet %d: Σ %v, floor start %v", xi, exits, p, hs, fs)
					}
					excused++
					continue
				case fn != hn-k:
					t.Fatalf("line %v: %d steps from the floor, want %d of the hull entry's %d", xi, fn, hn-k, hn)
				}
			}
			if math.Float64bits(fs) == math.Float64bits(hs) && fo == ho && fn <= hn {
				continue
			}
			if s, _, _, ok := m.tryColumn(xi, spec.ZMin, spec.ZMax, nil); !c.below || ok || s != 0 {
				t.Fatalf("line %v: floor start (Σ=%v steps=%d %v), hull entry (Σ=%v steps=%d %v)", xi, fs, fn, fo, hs, hn, ho)
			}
			excused++
		}
	}
	for _, workers := range []int{1, 2, 4} {
		g, stats, err := m.Render(spec, workers, ScheduleDynamic)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameBits(g, ref, 0, colRange(0, spec.Nx)); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if got := TotalOutcomes(stats); got != outcomes {
			t.Errorf("workers %d: outcomes %v, want %v", workers, got, outcomes)
		}
		if got := totalSteps(stats); got != steps {
			t.Errorf("workers %d: %d steps, want %d", workers, got, steps)
		}
	}
	return floor, hull, excused
}

// TestFloorStartMatchesHullEntry is the floor start's bit-identity gate
// (checkFloorStart) on every floorCase.
func TestFloorStartMatchesHullEntry(t *testing.T) {
	for _, c := range floorCases() {
		t.Run(c.name, func(t *testing.T) {
			floor, hull, excused := checkFloorStart(t, NewMarcher(fieldFor(t, c.pts)), c)
			t.Logf("%d lines from the floor, %d through the hull, %d excused", floor, hull, excused)
			if c.floor && floor == 0 {
				t.Error("no line started at its floor")
			}
			if c.hull && hull == 0 {
				t.Error("no line entered through the hull")
			}
		})
	}
}

// FuzzFloorStart holds floor-started lines to checkFloorStart on random
// small catalogs, some snapped to a 1/4 lattice (duplicates, coplanar and
// cospherical points, lines along edges), under a random 8² grid and
// floor.
func FuzzFloorStart(f *testing.F) {
	f.Add(int64(1), uint8(40), false, 0.1, 0.1, 0.1, 0.4)
	f.Add(int64(2), uint8(90), true, 0.0, 0.0, 0.125, 0.5)
	f.Add(int64(3), uint8(30), true, -0.1, 0.05, 0.2, 0.25)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, snap bool, x0, y0, cell, zmin float64) {
		if !(cell >= 1e-3 && cell <= 0.5 && x0 >= -1 && x0 <= 1 && y0 >= -1 && y0 <= 1 && zmin >= -0.5 && zmin <= 1.5) {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		pts := make([]geom.Vec3, 8+int(n)%120)
		for i := range pts {
			pts[i] = geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
			if snap {
				pts[i] = geom.Vec3{X: math.Round(4*pts[i].X) / 4, Y: math.Round(4*pts[i].Y) / 4, Z: math.Round(4*pts[i].Z) / 4}
			}
		}
		tri, err := delaunay.New(pts)
		if err != nil {
			t.Skip()
		}
		field, err := dtfe.NewField(tri, nil)
		if err != nil {
			t.Skip()
		}
		spec := Spec{Min: geom.Vec2{X: x0, Y: y0}, Nx: 8, Ny: 8, Cell: cell, Samples: 1, ZMin: zmin, ZMax: zmin + 0.5}
		checkFloorStart(t, NewMarcher(field), floorCase{spec: spec, below: snap})
	})
}
