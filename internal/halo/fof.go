// Package halo implements a friends-of-friends (FOF) halo finder: particles
// closer than a linking length belong to the same group. It is the
// "density based clustering algorithm" the paper uses to place field
// centers on the most massive objects (the MiraU 233,230-field experiment),
// and is used here to generate the galaxy-galaxy lensing configuration.
package halo

import (
	"math"
	"sort"

	"godtfe/internal/geom"
)

// Halo is one FOF group.
type Halo struct {
	// Members indexes the input particle slice.
	Members []int32
	// Center is the member centroid.
	Center geom.Vec3
	// N is the member count ("mass" for unit-mass particles).
	N int
}

// FindPeriodic is Find with periodic wrapping over the given box: pairs
// are linked through the box faces using the minimum-image separation, so
// groups straddling a face are not split. Centers are reported inside the
// box (computed from minimum-image offsets relative to the first member).
func FindPeriodic(pts []geom.Vec3, box geom.AABB, link float64, minMembers int) []Halo {
	if len(pts) == 0 || link <= 0 {
		return nil
	}
	sz := box.Size()
	// Shifted images of the particles within link of a face, each owned by
	// its source particle, so a pair linked through a face unites the
	// sources.
	pos := append(make([]geom.Vec3, 0, 2*len(pts)), pts...)
	owner := make([]int32, len(pts), 2*len(pts))
	for i := range owner {
		owner[i] = int32(i)
	}
	shifts := func(v, lo, hi, L float64) (d [3]float64, n int) {
		n = 1
		if v-lo < link {
			d[n], n = L, n+1
		}
		if hi-v < link {
			d[n], n = -L, n+1
		}
		return d, n
	}
	for i, p := range pts {
		dx, nx := shifts(p.X, box.Min.X, box.Max.X, sz.X)
		dy, ny := shifts(p.Y, box.Min.Y, box.Max.Y, sz.Y)
		dz, nz := shifts(p.Z, box.Min.Z, box.Max.Z, sz.Z)
		for a := 0; a < nx; a++ {
			for b := 0; b < ny; b++ {
				for c := 0; c < nz; c++ {
					if a+b+c > 0 {
						pos = append(pos, geom.Vec3{X: p.X + dx[a], Y: p.Y + dy[b], Z: p.Z + dz[c]})
						owner = append(owner, int32(i))
					}
				}
			}
		}
	}
	return collect(unite(pos, owner, len(pts), link), minMembers, func(members []int32) geom.Vec3 {
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
		return geom.Vec3{
			X: wrap(c.X, box.Min.X, sz.X),
			Y: wrap(c.Y, box.Min.Y, sz.Y),
			Z: wrap(c.Z, box.Min.Z, sz.Z),
		}
	})
}

// Find links particles with separation <= link and returns the groups with
// at least minMembers members, sorted by descending member count. Members
// ascend, and Center sums them in that order. A particle with a non-finite
// coordinate links to nothing unless link² overflows.
func Find(pts []geom.Vec3, link float64, minMembers int) []Halo {
	if len(pts) == 0 || link <= 0 {
		return nil
	}
	return collect(unite(pts, nil, len(pts), link), minMembers, func(members []int32) geom.Vec3 {
		var c geom.Vec3
		for _, m := range members {
			c = c.Add(pts[m])
		}
		return c.Scale(1 / float64(len(members)))
	})
}

// unite returns a union-find forest over n particles in which the owners of
// every two positions at most link apart share a root: position i belongs
// to owner[i], or to particle i when owner is nil, and the pair test is
// pos[j].Sub(pos[i]).Norm2() <= link², or its exact negation. At a finite
// link², positions with a non-finite coordinate link to nothing and stay
// out of the box and the grid.
//
// It walks one sorted cell list. Each position's cell key (x fastest) and
// index are packed into one word and the words sorted once. The occupied
// cells are then visited in key order, each against itself and its 13
// neighbours of higher key: the next cell in its row, and three cells in
// each of four rows. A row's key range only grows with the cell's key, so
// each of the four rows is read through a cursor that only moves forward.
func unite(pos []geom.Vec3, owner []int32, n int, link float64) []int32 {
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	if math.IsNaN(link) {
		return parent // nothing is within NaN of anything
	}
	// A position with a non-finite coordinate is Inf or NaN away from any
	// other: it links to nothing unless link² is infinite, and then to
	// what it is not NaN away from.
	link2 := link * link
	keep := geom.Vec3.IsFinite
	if math.IsInf(link2, 1) {
		keep = func(p geom.Vec3) bool { return !math.IsNaN(p.Norm2()) }
	}
	box := geom.EmptyAABB()
	words := make([]uint64, 0, len(pos))
	for i, p := range pos {
		if keep(p) {
			box.Extend(p)
			words = append(words, uint64(i))
		}
	}
	if len(words) == 0 {
		return parent
	}
	sz := box.Size()
	// Cells a hair wider than link, so that neither the rounding of a cell
	// index (relative 2⁻⁵² of the extent) nor an underflowing link² can put
	// a linked pair two cells apart; an infinite link² links every finite
	// pair, in one cell. At most 2³² cells, so a key fits the high half of
	// a word: outliers far from the rest widen the cells instead.
	w := math.Max(link, 0x1p-500)*(1+0x1p-40) + math.Max(sz.X, math.Max(sz.Y, sz.Z))*0x1p-44
	if math.IsInf(link2, 1) {
		w = math.Inf(1)
	}
	var fx, fy, fz float64
	for {
		fx, fy, fz = cellCount(sz.X, w), cellCount(sz.Y, w), cellCount(sz.Z, w)
		if fx*fy*fz <= 1<<32 {
			break
		}
		w *= 2
	}
	nx, ny, nz := int(fx), int(fy), int(fz)
	inv := 1 / w
	cell := func(v, lo float64, n int) uint64 {
		return uint64(min(max(int((v-lo)*inv), 0), n-1))
	}
	for k, i := range words {
		p := pos[i]
		key := (cell(p.Z, box.Min.Z, nz)*uint64(ny)+cell(p.Y, box.Min.Y, ny))*uint64(nx) + cell(p.X, box.Min.X, nx)
		words[k] = key<<32 | i
	}
	// SortHilbertWords orders by bits 28 and up: by key, then by bits of
	// the index, which keeps every cell's words together.
	words = geom.SortHilbertWords(words, make([]uint64, len(words)))

	sp := make([]geom.Vec3, len(words)) // positions in cell order
	so := make([]int32, len(words))     // and their owners
	for k, wd := range words {
		i := uint32(wd)
		sp[k], so[k] = pos[i], int32(i)
		if owner != nil {
			so[k] = owner[i]
		}
	}
	test := func(a, b int) {
		if sp[b].Sub(sp[a]).Norm2() <= link2 {
			union(parent, so[a], so[b])
		}
	}
	X, XY := uint64(nx), uint64(nx*ny)
	rowDY := [4]int{1, -1, 0, 1} // rows (y+1, z), then (y-1…y+1, z+1)
	rowDZ := [4]int{0, 1, 1, 1}
	rowKey := [4]uint64{X, XY - X, XY, XY + X}
	var cur [4]int
	m := len(words)
	for s := 0; s < m; {
		key := words[s] >> 32
		e := s + 1
		for e < m && words[e]>>32 == key {
			e++
		}
		cx, cy, cz := int(key%X), int(key/X%uint64(ny)), int(key/XY)
		for a := s; a < e; a++ {
			for b := a + 1; b < e; b++ {
				test(a, b)
			}
		}
		if cx+1 < nx {
			for b := e; b < m && words[b]>>32 == key+1; b++ {
				for a := s; a < e; a++ {
					test(a, b)
				}
			}
		}
		for r := range cur {
			if y := cy + rowDY[r]; y < 0 || y >= ny || cz+rowDZ[r] >= nz {
				continue
			}
			lo, hi := key+rowKey[r], key+rowKey[r]
			if cx > 0 {
				lo--
			}
			if cx+1 < nx {
				hi++
			}
			b := cur[r]
			for b < m && words[b]>>32 < lo {
				b++
			}
			cur[r] = b
			for ; b < m && words[b]>>32 <= hi; b++ {
				for a := s; a < e; a++ {
					test(a, b)
				}
			}
		}
		s = e
	}
	return parent
}

// collect resolves the forest into halos: members ascending, a member slice
// only for a group of at least minMembers, center(members) as its Center,
// sorted by descending size and then by first member.
func collect(parent []int32, minMembers int, center func(members []int32) geom.Vec3) []Halo {
	size := make([]int32, len(parent))
	for i := range parent {
		parent[i] = root(parent, int32(i))
		size[parent[i]]++
	}
	var out []Halo
	for i, r := range parent {
		if s := size[r]; s > 0 && int(s) >= minMembers {
			out = append(out, Halo{Members: make([]int32, 0, s), N: int(s)})
			size[r] = -int32(len(out)) // from here on, minus one more than its index in out
		}
		if s := size[r]; s < 0 {
			h := &out[-s-1]
			h.Members = append(h.Members, int32(i))
		}
	}
	for k := range out {
		out[k].Center = center(out[k].Members)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].N != out[b].N {
			return out[a].N > out[b].N
		}
		return out[a].Members[0] < out[b].Members[0]
	})
	return out
}

// root returns the root of x's tree, halving the path on the way.
func root(parent []int32, x int32) int32 {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// union joins the trees of a and b under the smaller root.
func union(parent []int32, a, b int32) {
	a, b = root(parent, a), root(parent, b)
	if a < b {
		parent[b] = a
	} else if b < a {
		parent[a] = b
	}
}

// MeanSeparation returns the mean interparticle separation
// (V/n)^(1/3) — the usual normalization for the FOF linking length
// (b ≈ 0.2 of this).
func MeanSeparation(pts []geom.Vec3) float64 {
	if len(pts) == 0 {
		return 0
	}
	box := geom.BoundsOf(pts)
	sz := box.Size()
	v := sz.X * sz.Y * sz.Z
	return math.Cbrt(v / float64(len(pts)))
}

// Centers extracts the top-n halo centers (all if n <= 0).
func Centers(halos []Halo, n int) []geom.Vec3 {
	if n <= 0 || n > len(halos) {
		n = len(halos)
	}
	out := make([]geom.Vec3, n)
	for i := 0; i < n; i++ {
		out[i] = halos[i].Center
	}
	return out
}

// cellCount is the number of cells of width w spanning extent: one for an
// infinite width.
func cellCount(extent, w float64) float64 {
	if math.IsInf(w, 1) {
		return 1
	}
	return math.Floor(extent/w) + 1
}
