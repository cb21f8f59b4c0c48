package geomerr

import (
	"errors"
	"io"
	"strings"
	"testing"
)

func TestSentinelMatching(t *testing.T) {
	cases := []struct {
		err      error
		sentinel error
	}{
		{Degenerate("delaunay.New", "all points coplanar"), ErrDegenerateInput},
		{&LocateError{Op: "delaunay.Locate", Steps: 42}, ErrLocateDiverged},
		{Corrupt("delaunay.insert", "neighbor symmetry violated"), ErrMeshCorrupt},
		{&BadParticleError{Index: 7, Reason: "nan coordinate"}, ErrBadParticle},
		{Format(16, io.ErrUnexpectedEOF, "truncated block table"), ErrBadFormat},
	}
	sentinels := []error{ErrDegenerateInput, ErrLocateDiverged, ErrMeshCorrupt, ErrBadParticle, ErrBadFormat}
	for _, c := range cases {
		if !errors.Is(c.err, c.sentinel) {
			t.Errorf("%v should match %v", c.err, c.sentinel)
		}
		for _, s := range sentinels {
			if s != c.sentinel && errors.Is(c.err, s) {
				t.Errorf("%v must not match %v", c.err, s)
			}
		}
	}
}

func TestErrorsAs(t *testing.T) {
	err := error(&BadParticleError{Index: 3, Reason: "inf coordinate"})
	var bp *BadParticleError
	if !errors.As(err, &bp) || bp.Index != 3 {
		t.Fatalf("errors.As failed: %v", err)
	}

	ferr := Format(1234, nil, "bad magic %#x", 0xdead)
	var fe *FormatError
	if !errors.As(ferr, &fe) || fe.Offset != 1234 {
		t.Fatalf("errors.As failed: %v", ferr)
	}
	if !strings.Contains(fe.Error(), "byte 1234") {
		t.Fatalf("offset missing from message: %v", fe)
	}
}

func TestFormatCause(t *testing.T) {
	err := Format(0, io.ErrUnexpectedEOF, "short header")
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatal("not a FormatError")
	}
	if fe.Err != io.ErrUnexpectedEOF {
		t.Fatalf("cause = %v", fe.Err)
	}
	// The sentinel, not the cause, drives errors.Is — callers sort by
	// category first.
	if !errors.Is(err, ErrBadFormat) {
		t.Fatal("should be ErrBadFormat")
	}
}
