package particleio

import (
	"fmt"
	"math"

	"godtfe/internal/geom"
	"godtfe/internal/geomerr"
)

// Policy selects what happens to invalid particles during ingestion.
type Policy int

const (
	// PolicyFail rejects the whole catalog on the first invalid particle
	// (the default: garbage in, typed error out).
	PolicyFail Policy = iota
	// PolicyDrop discards invalid particles and counts them.
	PolicyDrop
)

// String names the policy (and is the flag spelling understood by
// ParsePolicy).
func (p Policy) String() string {
	switch p {
	case PolicyFail:
		return "fail"
	case PolicyDrop:
		return "drop"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy parses a policy name ("fail", "drop").
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "fail", "":
		return PolicyFail, nil
	case "drop":
		return PolicyDrop, nil
	}
	return PolicyFail, fmt.Errorf("particleio: unknown ingestion policy %q (want fail or drop)", s)
}

// ValidateOptions configures ValidateParticles.
type ValidateOptions struct {
	// Policy for invalid particles (non-finite coordinates, non-positive
	// masses, out-of-domain positions).
	Policy Policy

	// Domain, when non-empty, is the valid coordinate box: particles
	// outside are invalid (dropped or fatal per Policy).
	// Leave zero/empty to accept any finite coordinate.
	Domain geom.AABB
}

// IngestReport accounts for every particle examined by validation: the
// pipeline's per-rank ingestion ledgers aggregate these, so a sanitized
// catalog is never silently smaller than the input.
type IngestReport struct {
	Total   int // particles examined
	Kept    int // particles surviving validation
	Dropped int // particles removed

	// Reasons counts invalid particles by defect.
	NonFinite   int
	BadMass     int
	OutOfDomain int

	// FirstBad is the first defect encountered (nil when the catalog was
	// clean); under PolicyFail it is also the returned error.
	FirstBad error
}

// Add accumulates other into r (FirstBad keeps the earliest non-nil).
func (r *IngestReport) Add(other IngestReport) {
	r.Total += other.Total
	r.Kept += other.Kept
	r.Dropped += other.Dropped
	r.NonFinite += other.NonFinite
	r.BadMass += other.BadMass
	r.OutOfDomain += other.OutOfDomain
	if r.FirstBad == nil {
		r.FirstBad = other.FirstBad
	}
}

// Clean reports whether every particle passed.
func (r IngestReport) Clean() bool {
	return r.Dropped == 0
}

func (r IngestReport) String() string {
	return fmt.Sprintf("ingest{total=%d kept=%d dropped=%d nonfinite=%d badmass=%d outside=%d}",
		r.Total, r.Kept, r.Dropped, r.NonFinite, r.BadMass, r.OutOfDomain)
}

func (o ValidateOptions) hasDomain() bool {
	return o.Domain.Min.X < o.Domain.Max.X &&
		o.Domain.Min.Y < o.Domain.Max.Y &&
		o.Domain.Min.Z < o.Domain.Max.Z
}

// ValidateParticles checks a catalog particle by particle. masses may be
// nil (unit masses: the mass check is skipped and the returned masses stay
// nil); otherwise they are filtered in step with the points. Under
// PolicyFail the first invalid particle is returned as an error matching
// geomerr.ErrBadParticle; under PolicyDrop every invalid particle is
// removed and counted. Valid particles pass unchanged, coincident ones
// included: the triangulation folds each exact duplicate into one vertex
// that carries the summed mass.
//
// The input slices are never mutated; when nothing is dropped the original
// slices are returned as-is (zero-copy fast path).
func ValidateParticles(pts []geom.Vec3, masses []float64, opts ValidateOptions) ([]geom.Vec3, []float64, IngestReport, error) {
	rep := IngestReport{Total: len(pts)}
	if masses != nil && len(masses) != len(pts) {
		err := geomerr.Format(0, nil, "particleio: %d masses for %d particles", len(masses), len(pts))
		return nil, nil, rep, err
	}

	outPts, outMasses := pts, masses
	dirty := false // outPts is a copy holding the valid particles before i
	hasDomain := opts.hasDomain()
	for i, p := range pts {
		var reason string
		switch {
		case !p.IsFinite():
			reason = fmt.Sprintf("non-finite coordinate %v", p)
			rep.NonFinite++
		case masses != nil && (math.IsNaN(masses[i]) || math.IsInf(masses[i], 0) || masses[i] <= 0):
			reason = fmt.Sprintf("non-positive mass %v", masses[i])
			rep.BadMass++
		case hasDomain && !opts.Domain.Contains(p):
			reason = fmt.Sprintf("outside domain %v", p)
			rep.OutOfDomain++
		default:
			if dirty {
				outPts = append(outPts, p)
				if masses != nil {
					outMasses = append(outMasses, masses[i])
				}
			}
			continue
		}
		err := &geomerr.BadParticleError{Index: i, Reason: reason}
		if rep.FirstBad == nil {
			rep.FirstBad = err
		}
		if opts.Policy == PolicyFail {
			return nil, nil, rep, err
		}
		if !dirty {
			dirty = true
			outPts = append(make([]geom.Vec3, 0, len(pts)), pts[:i]...)
			if masses != nil {
				outMasses = append(make([]float64, 0, len(masses)), masses[:i]...)
			}
		}
		rep.Dropped++
	}
	rep.Kept = len(outPts)
	return outPts, outMasses, rep, nil
}

// ReadAllValidated reads every particle in the file and applies the
// ingestion policy.
func ReadAllValidated(path string, opts ValidateOptions) ([]geom.Vec3, IngestReport, error) {
	pts, err := ReadAll(path)
	if err != nil {
		return nil, IngestReport{}, err
	}
	out, _, rep, err := ValidateParticles(pts, nil, opts)
	return out, rep, err
}
