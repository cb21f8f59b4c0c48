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

// Rank returns the rank owning grid cell (i, j, k).
func (d Decomp) Rank(i, j, k int) int { return (k*d.Ny+j)*d.Nx + i }

// SubVolume returns rank's owned region.
func (d Decomp) SubVolume(rank int) geom.AABB {
	i, j, k := d.Cell(rank)
	sz := d.Box.Size()
	dx := sz.X / float64(d.Nx)
	dy := sz.Y / float64(d.Ny)
	dz := sz.Z / float64(d.Nz)
	min := geom.Vec3{
		X: d.Box.Min.X + float64(i)*dx,
		Y: d.Box.Min.Y + float64(j)*dy,
		Z: d.Box.Min.Z + float64(k)*dz,
	}
	return geom.AABB{Min: min, Max: min.Add(geom.Vec3{X: dx, Y: dy, Z: dz})}
}

// GhostVolume returns rank's owned region expanded by the ghost width,
// clipped to the box (periodic decompositions additionally receive
// shifted images covering the unclipped halo; see Exchange).
func (d Decomp) GhostVolume(rank int) geom.AABB {
	sv := d.SubVolume(rank)
	g := geom.Vec3{X: d.Ghost, Y: d.Ghost, Z: d.Ghost}
	out := geom.AABB{Min: sv.Min.Sub(g), Max: sv.Max.Add(g)}
	// Clip to box.
	out.Min.X = maxf(out.Min.X, d.Box.Min.X)
	out.Min.Y = maxf(out.Min.Y, d.Box.Min.Y)
	out.Min.Z = maxf(out.Min.Z, d.Box.Min.Z)
	out.Max.X = minf(out.Max.X, d.Box.Max.X)
	out.Max.Y = minf(out.Max.Y, d.Box.Max.Y)
	out.Max.Z = minf(out.Max.Z, d.Box.Max.Z)
	return out
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// OwnerOf returns the rank whose sub-volume contains p (points exactly on
// internal boundaries go to the higher cell; points outside the box clamp
// to the nearest cell).
func (d Decomp) OwnerOf(p geom.Vec3) int {
	sz := d.Box.Size()
	ci := clampCell(int(float64(d.Nx)*(p.X-d.Box.Min.X)/sz.X), d.Nx)
	cj := clampCell(int(float64(d.Ny)*(p.Y-d.Box.Min.Y)/sz.Y), d.Ny)
	ck := clampCell(int(float64(d.Nz)*(p.Z-d.Box.Min.Z)/sz.Z), d.Nz)
	return d.Rank(ci, cj, ck)
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

// GhostRanksOf returns every rank whose ghost volume contains p (including
// its owner). Particles are replicated to all of them.
func (d Decomp) GhostRanksOf(p geom.Vec3) []int {
	// Candidate cells: those within Ghost of p along each axis.
	sz := d.Box.Size()
	dx := sz.X / float64(d.Nx)
	dy := sz.Y / float64(d.Ny)
	dz := sz.Z / float64(d.Nz)
	loX := clampCell(int((p.X-d.Ghost-d.Box.Min.X)/dx), d.Nx)
	hiX := clampCell(int((p.X+d.Ghost-d.Box.Min.X)/dx), d.Nx)
	loY := clampCell(int((p.Y-d.Ghost-d.Box.Min.Y)/dy), d.Ny)
	hiY := clampCell(int((p.Y+d.Ghost-d.Box.Min.Y)/dy), d.Ny)
	loZ := clampCell(int((p.Z-d.Ghost-d.Box.Min.Z)/dz), d.Nz)
	hiZ := clampCell(int((p.Z+d.Ghost-d.Box.Min.Z)/dz), d.Nz)
	var out []int
	for k := loZ; k <= hiZ; k++ {
		for j := loY; j <= hiY; j++ {
			for i := loX; i <= hiX; i++ {
				r := d.Rank(i, j, k)
				if d.GhostVolume(r).Contains(p) {
					out = append(out, r)
				}
			}
		}
	}
	return out
}

// ghostImages returns every (rank, image position) pair that should
// receive a ghost copy of p, excluding p's owner at its unshifted
// position. For periodic decompositions the images include the ±L shifts
// whose shifted position falls in a rank's (unclipped) ghost halo.
func (d Decomp) ghostImages(p geom.Vec3) []GhostImage {
	owner := d.OwnerOf(p)
	var out []GhostImage
	if !d.Periodic {
		for _, r := range d.GhostRanksOf(p) {
			if r != owner {
				out = append(out, GhostImage{Rank: r, Pos: p})
			}
		}
		return out
	}
	sz := d.Box.Size()
	for sx := -1; sx <= 1; sx++ {
		for sy := -1; sy <= 1; sy++ {
			for sz3 := -1; sz3 <= 1; sz3++ {
				img := geom.Vec3{
					X: p.X + float64(sx)*sz.X,
					Y: p.Y + float64(sy)*sz.Y,
					Z: p.Z + float64(sz3)*sz.Z,
				}
				for _, r := range d.ranksNear(img) {
					if sx == 0 && sy == 0 && sz3 == 0 && r == owner {
						continue
					}
					if d.ghostVolumeUnclipped(r).Contains(img) {
						out = append(out, GhostImage{Rank: r, Pos: img})
					}
				}
			}
		}
	}
	return out
}

// GhostImage is a ghost copy destination: a rank plus the (possibly
// periodically shifted) position the copy carries.
type GhostImage struct {
	Rank int
	Pos  geom.Vec3
}

// ranksNear returns the ranks whose unclipped ghost halo could contain
// img (a bounding cell-range query; no wrapping — img is already a
// shifted image in absolute coordinates).
func (d Decomp) ranksNear(img geom.Vec3) []int {
	sz := d.Box.Size()
	dx := sz.X / float64(d.Nx)
	dy := sz.Y / float64(d.Ny)
	dz := sz.Z / float64(d.Nz)
	loX := int(math.Floor((img.X - d.Ghost - d.Box.Min.X) / dx))
	hiX := int(math.Floor((img.X + d.Ghost - d.Box.Min.X) / dx))
	loY := int(math.Floor((img.Y - d.Ghost - d.Box.Min.Y) / dy))
	hiY := int(math.Floor((img.Y + d.Ghost - d.Box.Min.Y) / dy))
	loZ := int(math.Floor((img.Z - d.Ghost - d.Box.Min.Z) / dz))
	hiZ := int(math.Floor((img.Z + d.Ghost - d.Box.Min.Z) / dz))
	loX, hiX = maxi(loX, 0), mini(hiX, d.Nx-1)
	loY, hiY = maxi(loY, 0), mini(hiY, d.Ny-1)
	loZ, hiZ = maxi(loZ, 0), mini(hiZ, d.Nz-1)
	var out []int
	for k := loZ; k <= hiZ; k++ {
		for j := loY; j <= hiY; j++ {
			for i := loX; i <= hiX; i++ {
				out = append(out, d.Rank(i, j, k))
			}
		}
	}
	return out
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func mini(a, b int) int {
	if a < b {
		return a
	}
	return b
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
	send := make([]packet, c.Size())
	for _, p := range local {
		owner := d.OwnerOf(p)
		send[owner].Owned = append(send[owner].Owned, p)
		for _, gi := range d.ghostImages(p) {
			send[gi.Rank].Ghost = append(send[gi.Rank].Ghost, gi.Pos)
		}
	}
	recv, err := mpi.Alltoall(c, send)
	if err != nil {
		return nil, nil, err
	}
	for _, pk := range recv {
		owned = append(owned, pk.Owned...)
		ghosts = append(ghosts, pk.Ghost...)
	}
	return owned, ghosts, nil
}
