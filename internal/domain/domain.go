// Package domain implements the paper's spatial data partitioning (Section
// IV-B): a uniform equal-size sub-volume decomposition of the simulation
// box over ranks, particle ghost zones wide enough that any surface-density
// field whose center lies in a rank's sub-volume can be computed without
// further communication, and the neighbor particle exchange that fills
// them.
package domain

import (
	"errors"
	"fmt"
	"math"

	"godtfe/internal/geom"
	"godtfe/internal/mpi"
)

// Decomp is a uniform grid decomposition of a box over ranks.
type Decomp struct {
	Box        geom.AABB
	Nx, Ny, Nz int     // rank grid shape (Nx*Ny*Nz ranks)
	Ghost      float64 // ghost-zone width beyond each sub-volume face
	// Periodic wraps ghost zones across the box faces (cosmological
	// boxes): ghost particles near an opposite face arrive as shifted
	// images.
	Periodic bool
}

// NewDecomp factorizes `ranks` into the most cubic grid (largest dims on
// the longest box axes) and attaches the ghost width.
func NewDecomp(box geom.AABB, ranks int, ghost float64) (Decomp, error) {
	if ranks <= 0 {
		return Decomp{}, errors.New("domain: ranks must be positive")
	}
	if ghost < 0 {
		return Decomp{}, errors.New("domain: ghost width must be non-negative")
	}
	nx, ny, nz := factor3(ranks)
	// Assign the largest factor to the longest axis.
	dims := []int{nx, ny, nz} // descending from factor3
	sz := box.Size()
	type axis struct {
		len float64
		idx int
	}
	axes := []axis{{sz.X, 0}, {sz.Y, 1}, {sz.Z, 2}}
	// Simple selection sort descending by length.
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if axes[j].len > axes[i].len {
				axes[i], axes[j] = axes[j], axes[i]
			}
		}
	}
	var grid [3]int
	for i, a := range axes {
		grid[a.idx] = dims[i]
	}
	return Decomp{Box: box, Nx: grid[0], Ny: grid[1], Nz: grid[2], Ghost: ghost}, nil
}

// factor3 splits n into three factors, descending, as balanced as
// possible.
func factor3(n int) (int, int, int) {
	best := [3]int{n, 1, 1}
	bestScore := n // max dimension is the score; lower is better
	for a := 1; a*a*a <= n; a++ {
		if n%a != 0 {
			continue
		}
		m := n / a
		for b := a; b*b <= m; b++ {
			if m%b != 0 {
				continue
			}
			c := m / b
			if c < bestScore {
				bestScore = c
				best = [3]int{c, b, a}
			}
		}
	}
	return best[0], best[1], best[2]
}

// NumRanks returns the total rank count.
func (d Decomp) NumRanks() int { return d.Nx * d.Ny * d.Nz }

// Cell returns the grid cell of a rank.
func (d Decomp) Cell(rank int) (i, j, k int) {
	i = rank % d.Nx
	j = (rank / d.Nx) % d.Ny
	k = rank / (d.Nx * d.Ny)
	return
}

// cellRank is the rank owning cell (i, j, k) of a grid nx cells along x
// and ny along y, numbered x fastest: the inverse of Cell. It takes the
// grid's extents, not a Decomp: Exchange calls it for every candidate cell
// of every particle, and an inlined Decomp method copies the whole Decomp
// at each call.
func cellRank(i, j, k, nx, ny int) int { return (k*ny+j)*nx + i }

// SubVolume returns rank's owned region.
func (d Decomp) SubVolume(rank int) geom.AABB {
	i, j, k := d.Cell(rank)
	c := d.cellSize()
	min := geom.Vec3{
		X: d.Box.Min.X + float64(i)*c.X,
		Y: d.Box.Min.Y + float64(j)*c.Y,
		Z: d.Box.Min.Z + float64(k)*c.Z,
	}
	return geom.AABB{Min: min, Max: min.Add(c)}
}

// cellSize is a sub-volume's edges.
func (d Decomp) cellSize() geom.Vec3 {
	sz := d.Box.Size()
	return geom.Vec3{X: sz.X / float64(d.Nx), Y: sz.Y / float64(d.Ny), Z: sz.Z / float64(d.Nz)}
}

// GhostVolume returns rank's owned region expanded by the ghost width,
// clipped to the box (periodic decompositions additionally receive
// shifted images covering the unclipped halo; see Exchange).
func (d Decomp) GhostVolume(rank int) geom.AABB {
	out := d.ghostVolumeUnclipped(rank)
	return geom.AABB{Min: d.Box.Clamp(out.Min), Max: d.Box.Clamp(out.Max)}
}

// OwnerOf returns the rank whose sub-volume contains p (points exactly on
// internal boundaries go to the higher cell; points outside the box clamp
// to the nearest cell).
func (d Decomp) OwnerOf(p geom.Vec3) int {
	sz := d.Box.Size()
	return cellRank(cellOf(p.X, d.Box.Min.X, sz.X, d.Nx), cellOf(p.Y, d.Box.Min.Y, sz.Y, d.Ny), cellOf(p.Z, d.Box.Min.Z, sz.Z, d.Nz), d.Nx, d.Ny)
}

// cellOf is the cell owning v along one axis of n cells spanning size
// from lo.
func cellOf(v, lo, size float64, n int) int {
	return clampCell(int(float64(n)*(v-lo)/size), n)
}

func clampCell(c, n int) int {
	if c < 0 {
		return 0
	}
	if c >= n {
		return n - 1
	}
	return c
}

// ghostBoxes is what Exchange computes once per call to place particles:
// each rank's ghost box, clipped to the box or, when periodic, unclipped,
// and a sub-volume's edges, whose three divisions made Exchange half again
// as slow when images redid them for every particle.
type ghostBoxes struct {
	Decomp
	cell geom.Vec3
	box  []geom.AABB
}

func newGhostBoxes(d Decomp) *ghostBoxes {
	g := &ghostBoxes{Decomp: d, cell: d.cellSize(), box: make([]geom.AABB, d.NumRanks())}
	for r := range g.box {
		if d.Periodic {
			g.box[r] = d.ghostVolumeUnclipped(r)
		} else {
			g.box[r] = d.GhostVolume(r)
		}
	}
	return g
}

// images calls emit(r, q) for every ghost copy of p, which owner owns: q
// is p or, when periodic, one of its ±L shifts, and lies in rank r's ghost
// box; p at its owner is no ghost. Shifts go -L, 0, +L per axis, x
// outermost, and each shift's candidate ranks, those whose cells lie
// within Ghost of q, go in rank order.
func (g *ghostBoxes) images(p geom.Vec3, owner int, emit func(r int, q geom.Vec3)) {
	var x, y, z [3]float64
	var xlo, xhi, ylo, yhi, zlo, zhi [3]int
	d, cell := &g.Decomp, g.cell
	s0, s1 := 1, 1 // the shifts taken, as indices into x, y, z: -L, 0, +L
	if d.Periodic {
		s0, s1 = 0, 2
		size := d.Box.Size()
		for s := s0; s <= s1; s++ {
			f := float64(s - 1)
			x[s], y[s], z[s] = p.X+f*size.X, p.Y+f*size.Y, p.Z+f*size.Z
		}
	} else {
		x[1], y[1], z[1] = p.X, p.Y, p.Z
	}
	for s := s0; s <= s1; s++ {
		xlo[s], xhi[s] = cellSpan(x[s], d.Ghost, d.Box.Min.X, cell.X, d.Nx, d.Periodic)
		ylo[s], yhi[s] = cellSpan(y[s], d.Ghost, d.Box.Min.Y, cell.Y, d.Ny, d.Periodic)
		zlo[s], zhi[s] = cellSpan(z[s], d.Ghost, d.Box.Min.Z, cell.Z, d.Nz, d.Periodic)
	}
	for sx := s0; sx <= s1; sx++ {
		for sy := s0; sy <= s1; sy++ {
			for sz := s0; sz <= s1; sz++ {
				q := geom.Vec3{X: x[sx], Y: y[sy], Z: z[sz]}
				unshifted := sx == 1 && sy == 1 && sz == 1
				for k := zlo[sz]; k <= zhi[sz]; k++ {
					for j := ylo[sy]; j <= yhi[sy]; j++ {
						for i := xlo[sx]; i <= xhi[sx]; i++ {
							r := cellRank(i, j, k, d.Nx, d.Ny)
							if (r != owner || !unshifted) && g.box[r].Contains(q) {
								emit(r, q)
							}
						}
					}
				}
			}
		}
	}
}

// cellSpan is the range of cells within ghost of v along one axis of n
// cells of width w from lo. A periodic image outside the grid has an
// empty range; otherwise both ends clamp into the grid, so a particle
// outside the box is tested against the nearest cells' boxes.
func cellSpan(v, ghost, lo, w float64, n int, periodic bool) (int, int) {
	a, b := (v-ghost-lo)/w, (v+ghost-lo)/w
	if periodic {
		return max(int(math.Floor(a)), 0), min(int(math.Floor(b)), n-1)
	}
	return clampCell(int(a), n), clampCell(int(b), n)
}

// ghostVolumeUnclipped is the ghost halo without clipping to the box.
func (d Decomp) ghostVolumeUnclipped(rank int) geom.AABB {
	sv := d.SubVolume(rank)
	g := geom.Vec3{X: d.Ghost, Y: d.Ghost, Z: d.Ghost}
	return geom.AABB{Min: sv.Min.Sub(g), Max: sv.Max.Add(g)}
}

// packet is what Exchange's Alltoall carries from one rank to another: the
// receiver's owned particles and its ghost replicas.
type packet struct {
	Owned []geom.Vec3
	Ghost []geom.Vec3
}

// Exchange redistributes arbitrarily assigned particles to their spatial
// owners and fills ghost zones: every rank contributes its input slice,
// and receives (owned, ghosts) where owned are particles in its sub-volume
// and ghosts are replicas within the ghost halo (periodically shifted
// images when the decomposition is periodic). Implemented with a single
// Alltoall, the fused version of the paper's redistribute +
// neighbor-exchange steps.
func Exchange(c *mpi.Comm, d Decomp, local []geom.Vec3) (owned, ghosts []geom.Vec3, err error) {
	if c.Size() != d.NumRanks() {
		return nil, nil, fmt.Errorf("domain: world size %d != decomp ranks %d", c.Size(), d.NumRanks())
	}
	recv, err := mpi.Alltoall(c, pack(d, local))
	if err != nil {
		return nil, nil, err
	}
	no, ng := 0, 0
	for _, pk := range recv {
		no, ng = no+len(pk.Owned), ng+len(pk.Ghost)
	}
	owned, ghosts = make([]geom.Vec3, 0, no), make([]geom.Vec3, 0, ng)
	for _, pk := range recv {
		owned = append(owned, pk.Owned...)
		ghosts = append(ghosts, pk.Ghost...)
	}
	return owned, ghosts, nil
}

// pack sorts local into one packet per rank, each list in local's order.
// A first pass counts what every rank receives, so the second appends
// into one exactly sized buffer: the call allocates the same whatever the
// particle count. The first pass also keeps each particle's owner,
// complemented when the particle has ghost copies, so the second scans
// for copies only where there are some.
func pack(d Decomp, local []geom.Vec3) []packet {
	g := newGhostBoxes(d)
	nr := d.NumRanks()
	n := make([]int, 2*nr) // rank r receives n[2r] owned and n[2r+1] ghosts
	owners := make([]int32, len(local))
	copies := false
	count := func(r int, _ geom.Vec3) { n[2*r+1]++; copies = true }
	for i, p := range local {
		owner := d.OwnerOf(p)
		n[2*owner]++
		copies = false
		g.images(p, owner, count)
		owners[i] = int32(owner)
		if copies {
			owners[i] = ^owners[i]
		}
	}
	total := 0
	for _, k := range n {
		total += k
	}
	buf := make([]geom.Vec3, total)
	send := make([]packet, nr)
	off := 0
	for r := range send {
		no, ng := n[2*r], n[2*r+1]
		send[r].Owned = buf[off : off : off+no]
		send[r].Ghost = buf[off+no : off+no : off+no+ng]
		off += no + ng
	}
	put := func(r int, q geom.Vec3) { send[r].Ghost = append(send[r].Ghost, q) }
	for i, p := range local {
		owner := int(owners[i])
		if owner < 0 {
			owner = ^owner
			g.images(p, owner, put)
		}
		send[owner].Owned = append(send[owner].Owned, p)
	}
	return send
}
