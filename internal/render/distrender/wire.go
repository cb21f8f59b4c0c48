// Wire protocol of the distributed renderer. Every message is a plain
// struct carried by the mpi wire codec: setup (spec + tiling + catalog +
// rank 0's mesh) once, then batches to the workers and one tileResult per
// marched tile back. A truncated or mistyped message is a decode error
// that leaves the receiver untouched, so nothing is ever half-accepted.
package distrender

import (
	"slices"

	"godtfe/internal/delaunay"
	"godtfe/internal/dtfe"
	"godtfe/internal/geom"
	"godtfe/internal/geomerr"
	"godtfe/internal/grid"
	"godtfe/internal/render"
)

// Message tags. The pipeline owns 100–103; the distributed renderer's
// block starts at 120.
const (
	tagSetup  = 120 // coordinator → worker: setupMsg (once)
	tagBatch  = 123 // coordinator → worker: assignBatch
	tagResult = 124 // worker → coordinator: tileResult
)

// setupMsg is the one-shot message that primes every worker: the render
// spec, the authoritative tiling, the catalog and rank 0's mesh of it in
// the form delaunay.Restore takes. About 240 bytes a particle, encoded
// once for all workers; it is not on the per-tile hot path.
type setupMsg struct {
	Spec      render.Spec
	Tiles     []render.Tile
	Workers   int
	Particles []geom.Vec3
	// Finite is the finite prefix of the compacted tet pool, eight words
	// a tet: V, then N with a hull face's neighbour delaunay.NoTet.
	Finite  []int32
	DupOf   []int32 // tri.DuplicateOf(i), by particle
	PoolLen int     // the whole pool, hull included: Restore's capacity
}

// packMesh fills the mesh fields from tri, New's compacted mesh of Particles.
func (s *setupMsg) packMesh(tri *delaunay.Triangulation) {
	tets, nf := tri.Tets(), int32(tri.NumFiniteTets())
	s.Finite = make([]int32, 0, 8*nf)
	for _, t := range tets[:nf] {
		for k := range t.N {
			if t.N[k] >= nf {
				t.N[k] = delaunay.NoTet
			}
		}
		s.Finite = append(append(s.Finite, t.V[:]...), t.N[:]...)
	}
	s.DupOf = make([]int32, len(s.Particles))
	for i := range s.DupOf {
		s.DupOf[i] = int32(tri.DuplicateOf(i))
	}
	s.PoolLen = len(tets)
}

// restoreMarcher rebuilds rank 0's mesh and prepares the SoA kernel,
// dropping the pool words once restored. A pool that is no mesh of
// Particles, or a particle New refuses, is a geomerr.ErrMeshCorrupt.
func (s *setupMsg) restoreMarcher() (*render.Marcher, error) {
	const op = "distrender.restore"
	nf := len(s.Finite) / 8
	if len(s.Finite)%8 != 0 || s.PoolLen < nf || s.PoolLen > 5*nf { // a finite tet has at most four hull faces
		return nil, geomerr.Corrupt(op, "%d pool words for a pool of %d tets", len(s.Finite), s.PoolLen)
	}
	if i := slices.IndexFunc(s.Particles, func(p geom.Vec3) bool { return !p.IsFinite() }); i >= 0 {
		return nil, geomerr.Corrupt(op, "particle %d is %v", i, s.Particles[i])
	}
	finite := make([]delaunay.Tet, nf, s.PoolLen)
	for i := range finite {
		finite[i] = delaunay.Tet{V: [4]int32(s.Finite[8*i:]), N: [4]int32(s.Finite[8*i+4:])}
	}
	tri, err := delaunay.Restore(s.Particles, s.DupOf, finite)
	if err != nil {
		return nil, err
	}
	s.Finite, s.DupOf = nil, nil
	f, err := dtfe.NewField(tri, nil)
	if err != nil {
		return nil, err
	}
	return render.NewMarcher(f), nil
}

// tileResult is one marched tile, as a rank holds it in memory and as it
// travels to the coordinator, one message a tile: the tile's own grid
// (exactly its columns of the tiling, I1-I0 wide) and the tile-local worker
// stats (worker ids 0..W-1, re-based at the gather). The column span is not
// carried: every rank reads it from the setup tiling by index. Results are
// idempotent — the coordinator dedupes tiles first-wins — so a tile marched
// twice after a re-dispatch is always safe.
type tileResult struct {
	Tile  int
	Rank  int    // the rank that marched it
	Err   string // non-empty: the tile failed on that rank; Grid is nil
	Grid  *grid.Grid2D
	Stats []render.WorkerStat
}

// assignBatch is the assignment unit: the coordinator hands each rank its
// whole static share up front as indices into the setup tiling (recovery
// re-dispatches arrive as later single-tile batches), or Shutdown.
type assignBatch struct {
	Shutdown bool
	Tiles    []int
}
