// Package godtfe is a parallel Delaunay Tessellation Field Estimator
// (DTFE) library for surface-density field reconstruction, reproducing
// Rangel et al., "Parallel DTFE Surface Density Field Reconstruction"
// (IEEE CLUSTER 2016).
//
// The core contribution is a grid-rendering kernel that computes each 2D
// surface-density value by marching the line of sight through the 3D
// Delaunay mesh with Plücker-coordinate ray–tetrahedron intersections,
// integrating the piecewise-linear DTFE density exactly per tetrahedron —
// no intermediate 3D grid is ever built. Around the kernel sits a
// distributed-memory framework (ghost-zone decomposition, runtime workload
// modeling, a-priori work-sharing schedule) that load-balances many
// independent field reconstructions.
//
// Quick start:
//
//	tri, _ := godtfe.Triangulate(points)
//	field, _ := godtfe.NewDensityField(tri, nil) // unit masses
//	sigma, _ := godtfe.SurfaceDensity(field, godtfe.GridSpec{
//		Min: godtfe.Vec2{X: 0, Y: 0}, Nx: 512, Ny: 512, Cell: 1.0 / 512,
//	})
//
// For many fields over a large volume, use RunDistributed, which executes
// the paper's four-phase framework on an in-process message-passing
// runtime.
package godtfe

import (
	"fmt"
	"runtime"

	"godtfe/internal/delaunay"
	"godtfe/internal/dtfe"
	"godtfe/internal/geom"
	"godtfe/internal/geomerr"
	"godtfe/internal/grid"
	"godtfe/internal/mpi"
	"godtfe/internal/particleio"
	"godtfe/internal/pipeline"
	"godtfe/internal/render"
)

// Error taxonomy: every failure of the geometry and ingestion layers
// matches exactly one of these sentinels under errors.Is, forming the
// degradation ladder (panic → error → drop → partial result) documented
// in DESIGN.md.
var (
	// ErrDegenerateInput: the input itself is unusable (non-finite
	// coordinates, all points coplanar, a degenerate query).
	ErrDegenerateInput = geomerr.ErrDegenerateInput
	// ErrLocateDiverged: a point-location walk failed to terminate.
	ErrLocateDiverged = geomerr.ErrLocateDiverged
	// ErrMeshCorrupt: a structural invariant of the triangulation broke.
	ErrMeshCorrupt = geomerr.ErrMeshCorrupt
	// ErrBadParticle: one particle of a catalog is invalid.
	ErrBadParticle = geomerr.ErrBadParticle
	// ErrBadFormat: a particle file is malformed or truncated.
	ErrBadFormat = geomerr.ErrBadFormat
)

// IngestPolicy selects what happens to invalid particles during catalog
// sanitization: PolicyFail (reject the catalog), PolicyDrop (discard and
// count), or PolicyClamp (repair what is repairable).
type IngestPolicy = particleio.Policy

// Ingestion policies.
const (
	PolicyFail  = particleio.PolicyFail
	PolicyDrop  = particleio.PolicyDrop
	PolicyClamp = particleio.PolicyClamp
)

// IngestOptions configures SanitizeParticles (policy, domain box,
// duplicate handling).
type IngestOptions = particleio.ValidateOptions

// IngestReport tallies what sanitization did to a catalog.
type IngestReport = particleio.IngestReport

// SanitizeParticles validates a particle catalog under the given policy:
// non-finite coordinates, non-positive masses, and out-of-domain
// positions are rejected, dropped, or repaired, and coincident points
// optionally merged or deterministically jittered. masses may be nil.
func SanitizeParticles(points []Vec3, masses []float64, opts IngestOptions) ([]Vec3, []float64, IngestReport, error) {
	return particleio.ValidateParticles(points, masses, opts)
}

// ColumnOutcomes aggregates per-column march outcomes
// (clean/perturbed/fallback/abandoned) across a render.
type ColumnOutcomes = render.OutcomeCounts

// RenderOutcomes sums the per-worker column outcome counters of a render.
func RenderOutcomes(stats []WorkerStat) ColumnOutcomes { return render.TotalOutcomes(stats) }

// Vec3 is a point or vector in R^3 (z is the line-of-sight axis).
type Vec3 = geom.Vec3

// Vec2 is a point in the projected sky plane.
type Vec2 = geom.Vec2

// Box is an axis-aligned box.
type Box = geom.AABB

// Triangulation is a 3D Delaunay triangulation (see internal/delaunay for
// the full method set: tetrahedra, adjacency, hull, point location).
type Triangulation = delaunay.Triangulation

// DensityField couples a triangulation with DTFE vertex densities and
// per-tetrahedron gradients.
type DensityField = dtfe.Field

// Grid2D is a rendered field.
type Grid2D = grid.Grid2D

// GridSpec describes an output grid and integration bounds; see
// render.Spec for field documentation.
type GridSpec = render.Spec

// WorkerStat reports one render worker's share of the work.
type WorkerStat = render.WorkerStat

// Delta is an incremental catalog edit: particle indices to remove and
// particles to add, applied together by ApplyDelta.
type Delta = delaunay.Delta

// DeltaStats reports what an ApplyDelta did: insert/remove/repair
// counts, whether it fell back to a full rebuild, and the dirty x-region
// (the sound overapproximation of every render column whose values may
// have changed).
type DeltaStats = delaunay.DeltaStats

// Triangulate builds the Delaunay triangulation of points (robust to
// duplicates, grids, and cospherical degeneracies).
func Triangulate(points []Vec3) (*Triangulation, error) {
	return delaunay.New(points)
}

// ApplyDelta applies an incremental edit to an existing triangulation
// and returns the updated triangulation: removals by local star
// re-triangulation, insertions by standard cavity repair, both with the
// library's exact predicates. The receiver is never mutated — touched
// tet records are copied, so renders in flight on the old mesh stay
// consistent — and after canonical compaction the result is deeply equal
// to Triangulate on the edited point set (a rebuild fallback, reported
// in DeltaStats, guarantees this even when local repair declines).
func ApplyDelta(tri *Triangulation, d Delta) (*Triangulation, *DeltaStats, error) {
	return tri.ApplyDelta(d)
}

// NewDensityField estimates DTFE densities on the triangulation; masses
// may be nil for unit particle masses.
func NewDensityField(tri *Triangulation, masses []float64) (*DensityField, error) {
	return dtfe.NewField(tri, masses)
}

// SurfaceDensity renders the surface-density field with the paper's
// marching kernel on all available CPUs.
func SurfaceDensity(field *DensityField, spec GridSpec) (*Grid2D, error) {
	g, _, err := SurfaceDensityStats(field, spec, runtime.GOMAXPROCS(0))
	return g, err
}

// SurfaceDensityStats is SurfaceDensity with an explicit worker count and
// per-worker stats.
func SurfaceDensityStats(field *DensityField, spec GridSpec, workers int) (*Grid2D, []WorkerStat, error) {
	m := render.NewMarcher(field)
	return m.Render(spec, workers, render.ScheduleDynamic)
}

// SurfaceDensityBaseline renders with the 3D-grid walking baseline (the
// DTFE-public-software strategy): spec.Nz z-samples per column located by
// walking and summed with fixed Δz. Provided for comparisons; the marching
// kernel is both faster and exact per tetrahedron.
func SurfaceDensityBaseline(field *DensityField, spec GridSpec, workers int) (*Grid2D, []WorkerStat, error) {
	w := render.NewWalker(field)
	return w.Render(spec, workers)
}

// SurfaceDensityAlong integrates along an arbitrary line-of-sight
// direction by rotating the particle set so dir maps onto +z (the paper,
// Section IV-A2: "in principle any arbitrary direction can be chosen by a
// simple rotation of the triangulation"), triangulating the rotated
// points, and rendering. The spec is interpreted in the ROTATED frame
// (x-y plane ⊥ dir). It returns the field plus the rotation applied, so
// callers can map coordinates back with its transpose.
func SurfaceDensityAlong(dir Vec3, points []Vec3, masses []float64, spec GridSpec) (*Grid2D, geom.Mat3, error) {
	if dir.Norm() == 0 {
		return nil, geom.Mat3{}, fmt.Errorf("godtfe: zero line-of-sight direction")
	}
	rot := geom.RotationTo(dir, Vec3{Z: 1})
	rpts := geom.RotatePoints(rot, points)
	tri, err := Triangulate(rpts)
	if err != nil {
		return nil, rot, err
	}
	field, err := NewDensityField(tri, masses)
	if err != nil {
		return nil, rot, err
	}
	g, err := SurfaceDensity(field, spec)
	return g, rot, err
}

// PipelineConfig configures the distributed framework; see
// internal/pipeline.Config. It holds only what a program chooses: the box,
// the field size and grid, periodicity, whether Phase 3 shares work
// (LoadBalance), KeepFields, the seed and the ingest policy. The ghost
// buffer (0.25 × FieldLen a side), one march worker per field and the
// 16-particle floor below which a field renders empty are fixed.
type PipelineConfig = pipeline.Config

// PipelineResult is one rank's outcome.
type PipelineResult = pipeline.Result

// RunDistributed executes the paper's four-phase framework over `ranks`
// in-process ranks: particles are dealt round-robin to ranks (standing in
// for arbitrary file-block assignments), redistributed spatially with
// ghost zones, and every field centered at centers is rendered by its
// owner (or, with cfg.LoadBalance, possibly by a work-sharing peer).
// Results are indexed by rank.
func RunDistributed(ranks int, cfg PipelineConfig, particles []Vec3, centers []Vec3) ([]*PipelineResult, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("godtfe: ranks must be positive, got %d", ranks)
	}
	results := make([]*PipelineResult, ranks)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		var local []Vec3
		for i := c.Rank(); i < len(particles); i += ranks {
			local = append(local, particles[i])
		}
		var ctrs []Vec3
		if c.Rank() == 0 {
			ctrs = centers
		}
		res, err := pipeline.Run(c, cfg, local, ctrs)
		if err != nil {
			return err
		}
		results[c.Rank()] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
