// Package geomerr is the typed error taxonomy of the geometry and
// ingestion layers. Every failure the numerical core can hit maps onto one
// of five sentinel categories, so callers at any altitude — delaunay,
// dtfe, render, the pipeline, or a front-end — can sort errors into the
// degradation ladder (panic → error → drop → partial result) with
// errors.Is instead of string matching:
//
//   - ErrDegenerateInput: the input itself is unusable (non-finite
//     coordinates, all points coplanar/collinear, a degenerate query).
//     Recoverable by sanitizing or skipping the offending input.
//   - ErrLocateDiverged: a point-location walk exceeded its step budget
//     and the brute-force fallback found nothing. Recoverable per query.
//   - ErrMeshCorrupt: a structural invariant of the triangulation broke
//     (asymmetric adjacency, unmatched cavity faces, no conflict seed).
//     The mesh must be discarded; the work item is reported failed.
//   - ErrBadParticle: one particle of a catalog is invalid (NaN/Inf
//     coordinate, non-positive mass, outside the declared domain).
//     Recoverable by the drop ingestion policy.
//   - ErrBadFormat: a particle file is malformed or truncated; the
//     wrapped FormatError carries the byte offset of the defect.
//
// Concrete errors wrap the sentinels, so both
// errors.Is(err, geomerr.ErrBadParticle) and
// errors.As(err, &geomerr.BadParticleError{}) work.
package geomerr

import (
	"errors"
	"fmt"
)

// Sentinel categories. Match with errors.Is.
var (
	ErrDegenerateInput = errors.New("degenerate input")
	ErrLocateDiverged  = errors.New("point location diverged")
	ErrMeshCorrupt     = errors.New("mesh corrupt")
	ErrBadParticle     = errors.New("bad particle")
	ErrBadFormat       = errors.New("bad file format")
)

// DegenerateError is an ErrDegenerateInput with context: which operation
// rejected the input and why.
type DegenerateError struct {
	Op     string // e.g. "delaunay.New", "render.Column"
	Detail string
}

func (e *DegenerateError) Error() string {
	return fmt.Sprintf("%s: %v: %s", e.Op, ErrDegenerateInput, e.Detail)
}

func (e *DegenerateError) Unwrap() error { return ErrDegenerateInput }

// Degenerate builds a DegenerateError.
func Degenerate(op, format string, args ...any) error {
	return &DegenerateError{Op: op, Detail: fmt.Sprintf(format, args...)}
}

// LocateError is an ErrLocateDiverged: a walk used all its steps without
// terminating (possible only on a corrupted or adversarial mesh; the walk
// terminates on Delaunay triangulations).
type LocateError struct {
	Op    string
	Steps int // steps consumed before giving up
}

func (e *LocateError) Error() string {
	return fmt.Sprintf("%s: %v after %d steps", e.Op, ErrLocateDiverged, e.Steps)
}

func (e *LocateError) Unwrap() error { return ErrLocateDiverged }

// MeshError is an ErrMeshCorrupt with the violated invariant.
type MeshError struct {
	Op     string
	Detail string
}

func (e *MeshError) Error() string {
	return fmt.Sprintf("%s: %v: %s", e.Op, ErrMeshCorrupt, e.Detail)
}

func (e *MeshError) Unwrap() error { return ErrMeshCorrupt }

// Corrupt builds a MeshError.
func Corrupt(op, format string, args ...any) error {
	return &MeshError{Op: op, Detail: fmt.Sprintf(format, args...)}
}

// BadParticleError is an ErrBadParticle identifying the particle by index
// in its catalog.
type BadParticleError struct {
	Index  int
	Reason string // "nan coordinate", "non-positive mass", "outside domain", ...
}

func (e *BadParticleError) Error() string {
	return fmt.Sprintf("%v: particle %d: %s", ErrBadParticle, e.Index, e.Reason)
}

func (e *BadParticleError) Unwrap() error { return ErrBadParticle }

// FormatError is an ErrBadFormat locating the defect by byte offset. Err
// optionally carries the underlying cause (e.g. io.ErrUnexpectedEOF).
type FormatError struct {
	Offset int64
	Msg    string
	Err    error
}

func (e *FormatError) Error() string {
	s := fmt.Sprintf("%v at byte %d: %s", ErrBadFormat, e.Offset, e.Msg)
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

// Unwrap deliberately yields the sentinel, not Err, so errors.Is sorts by
// category; read Err when the I/O cause matters.
func (e *FormatError) Unwrap() error { return ErrBadFormat }

// Format builds a FormatError.
func Format(offset int64, cause error, format string, args ...any) error {
	return &FormatError{Offset: offset, Msg: fmt.Sprintf(format, args...), Err: cause}
}
