package particleio

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"godtfe/internal/geom"
	"godtfe/internal/geomerr"
)

func TestValidatePolicyFail(t *testing.T) {
	pts := []geom.Vec3{{X: 0.1}, {X: math.NaN()}, {X: 0.3}}
	_, _, rep, err := ValidateParticles(pts, nil, ValidateOptions{Policy: PolicyFail})
	if !errors.Is(err, geomerr.ErrBadParticle) {
		t.Fatalf("want ErrBadParticle, got %v", err)
	}
	var bp *geomerr.BadParticleError
	if !errors.As(err, &bp) || bp.Index != 1 {
		t.Fatalf("want BadParticleError{Index:1}, got %v", err)
	}
	if rep.NonFinite != 1 {
		t.Fatalf("report %v", rep)
	}
}

func TestValidatePolicyDrop(t *testing.T) {
	pts := []geom.Vec3{
		{X: 0.1, Y: 0.1, Z: 0.1},
		{X: math.Inf(1), Y: 0, Z: 0},
		{X: 0.2, Y: 0.2, Z: 0.2},
		{Y: math.NaN()},
	}
	masses := []float64{1, 1, -2, 1}
	out, m, rep, err := ValidateParticles(pts, masses, ValidateOptions{Policy: PolicyDrop})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || len(m) != 1 || out[0] != pts[0] {
		t.Fatalf("kept %v (masses %v)", out, m)
	}
	if rep.Dropped != 3 || rep.NonFinite != 2 || rep.BadMass != 1 || rep.Kept != 1 {
		t.Fatalf("report %v", rep)
	}
	if rep.FirstBad == nil || !errors.Is(rep.FirstBad, geomerr.ErrBadParticle) {
		t.Fatalf("FirstBad = %v", rep.FirstBad)
	}
	// Input slices untouched.
	if !math.IsInf(pts[1].X, 1) || masses[2] != -2 {
		t.Fatal("input mutated")
	}
}

func TestValidatePolicyClamp(t *testing.T) {
	dom := geom.AABB{Min: geom.Vec3{}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	pts := []geom.Vec3{
		{X: 0.5, Y: 0.5, Z: 0.5},
		{X: 2, Y: 0.5, Z: -1},    // out of domain: clamped
		{X: 0.3, Y: 0.3, Z: 0.3}, // negative mass: repaired
		{X: math.NaN()},          // unrepairable: dropped
	}
	masses := []float64{2, 4, -1, 1}
	out, m, rep, err := ValidateParticles(pts, masses, ValidateOptions{Policy: PolicyClamp, Domain: dom})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("kept %v", out)
	}
	want := geom.Vec3{X: 1, Y: 0.5, Z: 0}
	if out[1] != want {
		t.Fatalf("clamped to %v, want %v", out[1], want)
	}
	if m[2] != 1 { // smallest positive mass in the catalog
		t.Fatalf("repaired mass %v, want 1", m[2])
	}
	if rep.Clamped != 2 || rep.Dropped != 1 || rep.BadMass != 1 || rep.OutOfDomain != 1 {
		t.Fatalf("report %v", rep)
	}
}

func TestValidateCleanFastPath(t *testing.T) {
	pts := []geom.Vec3{{X: 0.1}, {X: 0.2}, {X: 0.3}}
	out, _, rep, err := ValidateParticles(pts, nil, ValidateOptions{Policy: PolicyDrop})
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &pts[0] {
		t.Fatal("clean catalog should be returned without copying")
	}
	if !rep.Clean() || rep.Kept != 3 {
		t.Fatalf("report %v", rep)
	}
}

func TestValidateCoincidentMerge(t *testing.T) {
	p := geom.Vec3{X: 0.5, Y: 0.5, Z: 0.5}
	pts := []geom.Vec3{p, {X: 0.1}, p, p}
	masses := []float64{1, 1, 2, 3}
	out, m, rep, err := ValidateParticles(pts, masses, ValidateOptions{
		Policy: PolicyDrop, Coincident: CoincidentMerge,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || rep.Merged != 2 {
		t.Fatalf("out=%v report %v", out, rep)
	}
	if m[0] != 6 {
		t.Fatalf("merged mass %v, want 6", m[0])
	}
}

func TestValidateCoincidentJitterDeterministic(t *testing.T) {
	p := geom.Vec3{X: 0.5, Y: 0.5, Z: 0.5}
	pts := []geom.Vec3{p, p, p, {X: 0.500000001, Y: 0.5, Z: 0.5}}
	opts := ValidateOptions{Policy: PolicyDrop, Coincident: CoincidentJitter, Eps: 1e-6}
	out1, _, rep, err := ValidateParticles(pts, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jittered != 3 {
		t.Fatalf("report %v", rep)
	}
	// The head keeps its exact position; later members move, but by at
	// most eps in each axis.
	if out1[0] != p {
		t.Fatalf("cluster head moved: %v", out1[0])
	}
	seen := map[geom.Vec3]bool{}
	for i, q := range out1 {
		if seen[q] {
			t.Fatalf("still coincident after jitter: %v", q)
		}
		seen[q] = true
		if d := math.Abs(q.X-pts[i].X) + math.Abs(q.Y-pts[i].Y) + math.Abs(q.Z-pts[i].Z); d > 3e-6 {
			t.Fatalf("jitter too large: %v", d)
		}
	}
	// Deterministic: a second run produces identical output.
	out2, _, _, err := ValidateParticles(pts, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out1 {
		if out1[i] != out2[i] {
			t.Fatalf("jitter not deterministic at %d: %v vs %v", i, out1[i], out2[i])
		}
	}
}

func TestValidateExactDuplicateJitterNoEps(t *testing.T) {
	p := geom.Vec3{X: 1, Y: 2, Z: 3}
	pts := []geom.Vec3{p, p}
	out, _, rep, err := ValidateParticles(pts, nil, ValidateOptions{Coincident: CoincidentJitter})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jittered != 1 || out[0] == out[1] {
		t.Fatalf("out=%v report %v", out, rep)
	}
	if out[1].Sub(p).Norm() > 1e-7 {
		t.Fatalf("default jitter too large: %v", out[1].Sub(p))
	}
}

func TestReadAllValidated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.bin")
	pts := []geom.Vec3{
		{X: 0.1, Y: 0.1, Z: 0.1},
		{X: math.NaN(), Y: 0, Z: 0},
		{X: 0.9, Y: 0.9, Z: 0.9},
	}
	if err := Write(path, pts, [][]int32{{0, 1, 2}}); err != nil {
		t.Fatal(err)
	}
	// Fail-fast surfaces the typed error.
	if _, _, err := ReadAllValidated(path, ValidateOptions{Policy: PolicyFail}); !errors.Is(err, geomerr.ErrBadParticle) {
		t.Fatalf("want ErrBadParticle, got %v", err)
	}
	// Drop-and-count sanitizes.
	got, rep, err := ReadAllValidated(path, ValidateOptions{Policy: PolicyDrop})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || rep.Dropped != 1 || rep.NonFinite != 1 {
		t.Fatalf("got %d particles, report %v", len(got), rep)
	}
}

// TestWriteImplicitBlock: Write with no block lists used to produce a
// header of N particles in zero blocks, which every reader rejects; it now
// writes one block holding all of them, in input order.
func TestWriteImplicitBlock(t *testing.T) {
	pts := []geom.Vec3{{X: 0.1, Y: 0.2, Z: 0.3}, {X: 0.9, Y: 0.8, Z: 0.7}, {X: 0.5, Y: 0.5, Z: 0.5}}
	for name, blocks := range map[string][][]int32{"nil": nil, "empty": {}} {
		path := filepath.Join(t.TempDir(), name+".bin")
		if err := Write(path, pts, blocks); err != nil {
			t.Fatal(err)
		}
		got, rep, err := ReadAllValidated(path, ValidateOptions{Policy: PolicyFail})
		if err != nil {
			t.Fatalf("%s blocks: %v", name, err)
		}
		if rep.Dropped != 0 || len(got) != len(pts) {
			t.Fatalf("%s blocks: read %d particles, report %v", name, len(got), rep)
		}
		for i := range pts {
			if got[i] != pts[i] {
				t.Fatalf("%s blocks: particle %d is %v, wrote %v", name, i, got[i], pts[i])
			}
		}
		if h, err := ReadHeader(path); err != nil || len(h.Blocks) != 1 || h.Blocks[0].Count != int64(len(pts)) {
			t.Fatalf("%s blocks: header %+v, %v", name, h, err)
		}
	}
}

// corrupt writes a mutated copy of the file and returns its path.
func corrupt(t *testing.T, path string, mutate func([]byte) []byte) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "corrupt.bin")
	if err := os.WriteFile(out, mutate(b), 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestReadHeaderTypedErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.bin")
	pts := []geom.Vec3{{X: 0.1}, {X: 0.2}, {X: 0.3}, {X: 0.4}}
	if err := Write(path, pts, [][]int32{{0, 1}, {2, 3}}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		mutate     func([]byte) []byte
		wantOffset int64
	}{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, offMagic},
		{"bad version", func(b []byte) []byte { b[4] = 99; return b }, offVersion},
		{"unknown flags", func(b []byte) []byte { b[8] |= 0x80; return b }, offFlags},
		{"truncated fixed header", func(b []byte) []byte { return b[:10] }, 10},
		{"truncated block table", func(b []byte) []byte { return b[:fixedHeaderSize+blockEntrySize+7] },
			int64(fixedHeaderSize + blockEntrySize + 7)},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-8] }, -1},
		{"negative block count", func(b []byte) []byte {
			for i := 0; i < 8; i++ {
				b[fixedHeaderSize+i] = 0xff
			}
			return b
		}, int64(fixedHeaderSize)},
		{"count sum mismatch", func(b []byte) []byte { b[offNumParticles] = 7; return b }, offNumParticles},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := corrupt(t, path, tc.mutate)
			_, err := ReadHeader(bad)
			if !errors.Is(err, geomerr.ErrBadFormat) {
				t.Fatalf("want ErrBadFormat, got %v", err)
			}
			var fe *geomerr.FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("want *FormatError, got %T", err)
			}
			if tc.wantOffset >= 0 && fe.Offset != tc.wantOffset {
				t.Fatalf("offset %d, want %d (%v)", fe.Offset, tc.wantOffset, err)
			}
		})
	}
}

func TestReadBlockTruncatedFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.bin")
	pts := []geom.Vec3{{X: 0.1}, {X: 0.2}, {X: 0.3}}
	if err := Write(path, pts, [][]int32{{0, 1, 2}}); err != nil {
		t.Fatal(err)
	}
	h, err := ReadHeader(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate the payload after the header was read: ReadBlock must
	// report a typed truncation, not a raw EOF.
	if err := os.Truncate(path, HeaderSize(1)+8); err != nil {
		t.Fatal(err)
	}
	_, err = ReadBlock(path, h, 0)
	if !errors.Is(err, geomerr.ErrBadFormat) {
		t.Fatalf("want ErrBadFormat, got %v", err)
	}
}
