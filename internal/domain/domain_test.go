package domain

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"godtfe/internal/geom"
	"godtfe/internal/mpi"
)

func unitBox() geom.AABB {
	return geom.AABB{Min: geom.Vec3{}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
}

func TestFactor3(t *testing.T) {
	cases := map[int][3]int{
		1:  {1, 1, 1},
		2:  {2, 1, 1},
		8:  {2, 2, 2},
		12: {3, 2, 2},
		24: {4, 3, 2}, // max dim 4 is best for 24? 24=4*3*2 or 6*2*2: 4 wins
		64: {4, 4, 4},
		7:  {7, 1, 1},
	}
	for n, want := range cases {
		a, b, c := factor3(n)
		if a*b*c != n {
			t.Fatalf("factor3(%d) = %d*%d*%d", n, a, b, c)
		}
		if a != want[0] {
			t.Errorf("factor3(%d) max dim = %d, want %d", n, a, want[0])
		}
	}
}

func TestDecompCoversBox(t *testing.T) {
	d, err := NewDecomp(unitBox(), 12, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRanks() != 12 {
		t.Fatalf("ranks = %d", d.NumRanks())
	}
	// Sub-volumes tile the box: volumes sum to 1 and every point has
	// exactly one owner whose sub-volume contains it.
	var vol float64
	for r := 0; r < 12; r++ {
		sv := d.SubVolume(r)
		s := sv.Size()
		vol += s.X * s.Y * s.Z
	}
	if vol < 0.999 || vol > 1.001 {
		t.Fatalf("total volume = %v", vol)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		p := geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		r := d.OwnerOf(p)
		if !d.SubVolume(r).Contains(p) {
			t.Fatalf("owner %d does not contain %v", r, p)
		}
	}
}

func TestCellRankRoundTrip(t *testing.T) {
	d, err := NewDecomp(unitBox(), 24, 0)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 24; r++ {
		i, j, k := d.Cell(r)
		if d.Rank(i, j, k) != r {
			t.Fatalf("cell/rank roundtrip failed for %d", r)
		}
	}
}

func TestGhostVolume(t *testing.T) {
	d, err := NewDecomp(unitBox(), 8, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		sv := d.SubVolume(r)
		gv := d.GhostVolume(r)
		// Ghost volume contains the sub-volume and stays inside the box.
		if !gv.Contains(sv.Min) || !gv.Contains(sv.Max) {
			t.Fatalf("ghost volume of %d does not contain its sub-volume", r)
		}
		if gv.Min.X < -1e-12 || gv.Max.X > 1+1e-12 {
			t.Fatalf("ghost volume of %d escapes box: %+v", r, gv)
		}
	}
}

func TestGhostRanksOf(t *testing.T) {
	d, err := NewDecomp(unitBox(), 8, 0.1) // 2x2x2
	if err != nil {
		t.Fatal(err)
	}
	// A point near the box center is within 0.1 of all 8 sub-volumes.
	rs := d.GhostRanksOf(geom.Vec3{X: 0.5, Y: 0.5, Z: 0.5})
	if len(rs) != 8 {
		t.Fatalf("center point ghost ranks = %v", rs)
	}
	// A corner point belongs only to its own sub-volume's ghost.
	rs = d.GhostRanksOf(geom.Vec3{X: 0.05, Y: 0.05, Z: 0.05})
	if len(rs) != 1 {
		t.Fatalf("corner point ghost ranks = %v", rs)
	}
	// Brute-force check for random points.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		p := geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		got := map[int]bool{}
		for _, r := range d.GhostRanksOf(p) {
			got[r] = true
		}
		for r := 0; r < 8; r++ {
			want := d.GhostVolume(r).Contains(p)
			if got[r] != want {
				t.Fatalf("point %v rank %d: got %v want %v", p, r, got[r], want)
			}
		}
	}
}

func TestExchange(t *testing.T) {
	const ranks = 8
	const n = 2000
	box := unitBox()
	d, err := NewDecomp(box, ranks, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	all := make([]geom.Vec3, n)
	for i := range all {
		all[i] = geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
	}

	type result struct {
		owned, ghosts []geom.Vec3
	}
	results := make([]result, ranks)
	err = mpi.Run(ranks, func(c *mpi.Comm) error {
		// Arbitrary (strided) initial assignment, like file blocks.
		var local []geom.Vec3
		for i := c.Rank(); i < n; i += ranks {
			local = append(local, all[i])
		}
		owned, ghosts, err := Exchange(c, d, local)
		if err != nil {
			return err
		}
		results[c.Rank()] = result{owned, ghosts}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every particle owned exactly once, by the right rank.
	total := 0
	for r, res := range results {
		total += len(res.owned)
		sv := d.SubVolume(r)
		for _, p := range res.owned {
			if !sv.Contains(p) {
				t.Fatalf("rank %d owns particle outside its sub-volume", r)
			}
		}
		gv := d.GhostVolume(r)
		for _, p := range res.ghosts {
			if !gv.Contains(p) {
				t.Fatalf("rank %d ghost particle outside ghost volume", r)
			}
			if sv.Contains(p) && d.OwnerOf(p) == r {
				t.Fatalf("rank %d ghost particle is actually owned", r)
			}
		}
		// Ghosts complete: owned+ghosts must include every particle in
		// the ghost volume.
		want := 0
		for _, p := range all {
			if gv.Contains(p) {
				want++
			}
		}
		if got := len(res.owned) + len(res.ghosts); got != want {
			t.Fatalf("rank %d halo coverage: %d, want %d", r, got, want)
		}
	}
	if total != n {
		t.Fatalf("owned total = %d, want %d", total, n)
	}
}

func TestNewDecompErrors(t *testing.T) {
	if _, err := NewDecomp(unitBox(), 0, 0); err == nil {
		t.Fatal("zero ranks accepted")
	}
	if _, err := NewDecomp(unitBox(), 4, -1); err == nil {
		t.Fatal("negative ghost accepted")
	}
}

func TestAnisotropicBoxDecomp(t *testing.T) {
	// A slab-like box should put the largest factor on the long axis.
	box := geom.AABB{Min: geom.Vec3{}, Max: geom.Vec3{X: 1, Y: 1, Z: 8}}
	d, err := NewDecomp(box, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Nz < d.Nx || d.Nz < d.Ny {
		t.Fatalf("long axis not preferred: %dx%dx%d", d.Nx, d.Ny, d.Nz)
	}
}

func TestPeriodicGhostExchange(t *testing.T) {
	const ranks = 8
	box := unitBox()
	d, err := NewDecomp(box, ranks, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	d.Periodic = true
	rng := rand.New(rand.NewSource(13))
	const n = 1500
	all := make([]geom.Vec3, n)
	for i := range all {
		all[i] = geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
	}
	results := make([][2][]geom.Vec3, ranks)
	err = mpi.Run(ranks, func(c *mpi.Comm) error {
		var local []geom.Vec3
		for i := c.Rank(); i < n; i += ranks {
			local = append(local, all[i])
		}
		owned, ghosts, err := Exchange(c, d, local)
		if err != nil {
			return err
		}
		results[c.Rank()] = [2][]geom.Vec3{owned, ghosts}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < ranks; r++ {
		owned, ghosts := results[r][0], results[r][1]
		gv := d.ghostVolumeUnclipped(r)
		// Every ghost image sits in the UNCLIPPED halo (it may carry
		// coordinates outside [0,1): shifted periodic images).
		sawOutside := false
		for _, g := range ghosts {
			if !gv.Contains(g) {
				t.Fatalf("rank %d ghost %v outside unclipped halo %+v", r, g, gv)
			}
			if !box.Contains(g) {
				sawOutside = true
			}
		}
		if !sawOutside {
			t.Fatalf("rank %d received no wrapped images; periodic exchange inactive", r)
		}
		// Halo completeness: every particle with an image in the halo is
		// present (owned or ghost), including wrapped images.
		want := 0
		for _, p := range all {
			for sx := -1.0; sx <= 1; sx++ {
				for sy := -1.0; sy <= 1; sy++ {
					for sz := -1.0; sz <= 1; sz++ {
						img := geom.Vec3{X: p.X + sx, Y: p.Y + sy, Z: p.Z + sz}
						if gv.Contains(img) {
							want++
						}
					}
				}
			}
		}
		if got := len(owned) + len(ghosts); got != want {
			t.Fatalf("rank %d periodic halo coverage %d, want %d", r, got, want)
		}
	}
}

func TestPeriodicGhostFieldNearBoxEdge(t *testing.T) {
	// A field centered at the box corner must see the full wrapped
	// neighborhood: counts with periodic ghosts exceed the clipped case.
	box := unitBox()
	rng := rand.New(rand.NewSource(14))
	const n = 3000
	all := make([]geom.Vec3, n)
	for i := range all {
		all[i] = geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
	}
	count := func(periodic bool) int {
		d, err := NewDecomp(box, 8, 0.15)
		if err != nil {
			t.Fatal(err)
		}
		d.Periodic = periodic
		total := 0
		err = mpi.Run(8, func(c *mpi.Comm) error {
			var local []geom.Vec3
			for i := c.Rank(); i < n; i += 8 {
				local = append(local, all[i])
			}
			owned, ghosts, err := Exchange(c, d, local)
			if err != nil {
				return err
			}
			if c.Rank() == 0 { // corner rank
				corner := geom.Vec3{X: 0.02, Y: 0.02, Z: 0.02}
				h := 0.1
				cube := geom.AABB{
					Min: corner.Sub(geom.Vec3{X: h, Y: h, Z: h}),
					Max: corner.Add(geom.Vec3{X: h, Y: h, Z: h}),
				}
				for _, p := range append(owned, ghosts...) {
					if cube.Contains(p) {
						total++
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return total
	}
	clipped := count(false)
	wrapped := count(true)
	if wrapped <= clipped {
		t.Fatalf("periodic corner count %d not above clipped %d", wrapped, clipped)
	}
	// The wrapped cube is a full (0.2)^3 region: expect ~ n * 0.008.
	if want := int(float64(n) * 0.008); wrapped < want/2 || wrapped > want*2 {
		t.Fatalf("wrapped corner count %d, want ~%d", wrapped, want)
	}
}

// TestPacketOverWorld sends Exchange's packet through Alltoall, as
// Exchange does, and checks every receiver holds exactly what was sent.
func TestPacketOverWorld(t *testing.T) {
	const ranks = 3
	pk := func(src, dst int) packet {
		p := packet{Owned: []geom.Vec3{{X: float64(src), Y: float64(dst), Z: 0.5}}}
		if src != dst {
			p.Ghost = []geom.Vec3{{X: -1, Y: float64(src + dst)}}
		}
		return p
	}
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		send := make([]packet, ranks)
		for dst := range send {
			send[dst] = pk(c.Rank(), dst)
		}
		got, err := mpi.Alltoall(c, send)
		if err != nil {
			return err
		}
		for src := range got {
			if !reflect.DeepEqual(got[src], pk(src, c.Rank())) {
				return fmt.Errorf("rank %d from %d: got %+v", c.Rank(), src, got[src])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
