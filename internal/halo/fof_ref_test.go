package halo

import (
	"math"
	"sort"

	"godtfe/internal/geom"
)

// The finder as it was before the sorted cell list — a map from cell key to
// members over a grid of link-wide cells, 27 map probes per particle, a map
// of groups — kept verbatim but for the Ref suffixes, as the oracle Find and
// FindPeriodic must equal with reflect.DeepEqual (fof_ident_test.go).

func findPeriodicRef(pts []geom.Vec3, box geom.AABB, link float64, minMembers int) []Halo {
	if len(pts) == 0 || link <= 0 {
		return nil
	}
	sz := box.Size()
	// Augment with shifted images of particles within `link` of a face;
	// link images back to their source with union-find, then report each
	// group once.
	type image struct {
		pos geom.Vec3
		src int32
	}
	imgs := make([]image, 0, len(pts)*2)
	for i, p := range pts {
		imgs = append(imgs, image{pos: p, src: int32(i)})
	}
	shift := func(v, lo, hi, L float64) []float64 {
		out := []float64{0}
		if v-lo < link {
			out = append(out, L)
		}
		if hi-v < link {
			out = append(out, -L)
		}
		return out
	}
	for i, p := range pts {
		for _, dx := range shift(p.X, box.Min.X, box.Max.X, sz.X) {
			for _, dy := range shift(p.Y, box.Min.Y, box.Max.Y, sz.Y) {
				for _, dz := range shift(p.Z, box.Min.Z, box.Max.Z, sz.Z) {
					if dx == 0 && dy == 0 && dz == 0 {
						continue
					}
					imgs = append(imgs, image{
						pos: geom.Vec3{X: p.X + dx, Y: p.Y + dy, Z: p.Z + dz},
						src: int32(i),
					})
				}
			}
		}
	}
	ipts := make([]geom.Vec3, len(imgs))
	for i, im := range imgs {
		ipts[i] = im.pos
	}
	groups := findRef(ipts, link, 1)
	// Merge image groups by source particle with a second union-find over
	// the original indices.
	parent := make([]int32, len(pts))
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, g := range groups {
		first := imgs[g.Members[0]].src
		for _, m := range g.Members[1:] {
			a, b := find(first), find(imgs[m].src)
			if a != b {
				parent[b] = a
			}
		}
	}
	merged := map[int32][]int32{}
	for i := range pts {
		r := find(int32(i))
		merged[r] = append(merged[r], int32(i))
	}
	var out []Halo
	for _, members := range merged {
		if len(members) < minMembers {
			continue
		}
		// Minimum-image centroid relative to the first member, wrapped
		// back into the box.
		ref := pts[members[0]]
		var c geom.Vec3
		for _, m := range members {
			d := pts[m].Sub(ref)
			d.X -= sz.X * math.Round(d.X/sz.X)
			d.Y -= sz.Y * math.Round(d.Y/sz.Y)
			d.Z -= sz.Z * math.Round(d.Z/sz.Z)
			c = c.Add(ref.Add(d))
		}
		c = c.Scale(1 / float64(len(members)))
		wrap := func(v, lo, L float64) float64 {
			v = math.Mod(v-lo, L)
			if v < 0 {
				v += L
			}
			return lo + v
		}
		c = geom.Vec3{
			X: wrap(c.X, box.Min.X, sz.X),
			Y: wrap(c.Y, box.Min.Y, sz.Y),
			Z: wrap(c.Z, box.Min.Z, sz.Z),
		}
		out = append(out, Halo{Members: members, Center: c, N: len(members)})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].N != out[b].N {
			return out[a].N > out[b].N
		}
		return out[a].Members[0] < out[b].Members[0]
	})
	return out
}

func findRef(pts []geom.Vec3, link float64, minMembers int) []Halo {
	n := len(pts)
	if n == 0 || link <= 0 {
		return nil
	}
	// Cell list with cell size = linking length: neighbors are within the
	// 27 surrounding cells.
	box := geom.BoundsOf(pts)
	sz := box.Size()
	nx := cellCountRef(sz.X, link)
	ny := cellCountRef(sz.Y, link)
	nz := cellCountRef(sz.Z, link)
	cellOf := func(p geom.Vec3) (int, int, int) {
		cx := clampRef(int((p.X-box.Min.X)/link), 0, nx-1)
		cy := clampRef(int((p.Y-box.Min.Y)/link), 0, ny-1)
		cz := clampRef(int((p.Z-box.Min.Z)/link), 0, nz-1)
		return cx, cy, cz
	}
	cells := make(map[int64][]int32, n/4+1)
	key := func(cx, cy, cz int) int64 {
		return (int64(cz)*int64(ny)+int64(cy))*int64(nx) + int64(cx)
	}
	for i, p := range pts {
		cx, cy, cz := cellOf(p)
		k := key(cx, cy, cz)
		cells[k] = append(cells[k], int32(i))
	}

	parent := make([]int32, n)
	rank := make([]int8, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if rank[ra] < rank[rb] {
			ra, rb = rb, ra
		}
		parent[rb] = ra
		if rank[ra] == rank[rb] {
			rank[ra]++
		}
	}

	link2 := link * link
	for i := 0; i < n; i++ {
		p := pts[i]
		cx, cy, cz := cellOf(p)
		for dz := -1; dz <= 1; dz++ {
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					ncx, ncy, ncz := cx+dx, cy+dy, cz+dz
					if ncx < 0 || ncy < 0 || ncz < 0 || ncx >= nx || ncy >= ny || ncz >= nz {
						continue
					}
					for _, j := range cells[key(ncx, ncy, ncz)] {
						if j <= int32(i) {
							continue
						}
						if pts[j].Sub(p).Norm2() <= link2 {
							union(int32(i), j)
						}
					}
				}
			}
		}
	}

	groups := make(map[int32][]int32)
	for i := 0; i < n; i++ {
		r := find(int32(i))
		groups[r] = append(groups[r], int32(i))
	}
	var out []Halo
	for _, members := range groups {
		if len(members) < minMembers {
			continue
		}
		var c geom.Vec3
		for _, m := range members {
			c = c.Add(pts[m])
		}
		c = c.Scale(1 / float64(len(members)))
		out = append(out, Halo{Members: members, Center: c, N: len(members)})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].N != out[b].N {
			return out[a].N > out[b].N
		}
		// Deterministic tie-break on first member.
		return out[a].Members[0] < out[b].Members[0]
	})
	return out
}

func cellCountRef(extent, link float64) int {
	n := int(extent/link) + 1
	if n < 1 {
		n = 1
	}
	return n
}

func clampRef(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
