package particleio

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"godtfe/internal/geom"
	"godtfe/internal/geomerr"
)

// FuzzParticleIO feeds arbitrary bytes to the reader stack. The contract:
// ReadHeader/ReadAll either succeed or return an error matching
// geomerr.ErrBadFormat — never a panic, never an untyped error — and the
// sanitizer downstream never panics on whatever the reader accepted.
func FuzzParticleIO(f *testing.F) {
	// Seed with a valid file and the historical crash shapes: truncated
	// header, truncated block table, truncated payload, corrupt counts.
	valid := filepath.Join(f.TempDir(), "seed.bin")
	pts := []geom.Vec3{{X: 0.1}, {X: 0.2, Y: 0.3}, {X: 0.4, Z: 0.5}, {X: 0.6}}
	if err := Write(valid, pts, [][]int32{{0, 1}, {2, 3}}); err != nil {
		f.Fatal(err)
	}
	b, err := os.ReadFile(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Add([]byte{})
	f.Add(b[:10])                               // mid-header truncation
	f.Add(b[:fixedHeaderSize+blockEntrySize+7]) // mid-block-table truncation
	f.Add(b[:len(b)-8])                         // mid-payload truncation
	mut := append([]byte(nil), b...)
	mut[offNumParticles] = 0xff // count sum mismatch
	f.Add(mut)
	mut2 := append([]byte(nil), b...)
	for i := 0; i < 8; i++ {
		mut2[fixedHeaderSize+i] = 0xff // negative block count
	}
	f.Add(mut2)

	// One scratch file per worker process: t.TempDir per exec would
	// dominate the fuzz loop with directory churn.
	scratch := filepath.Join(f.TempDir(), "fuzz.bin")
	f.Fuzz(func(t *testing.T, data []byte) {
		path := scratch
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		h, err := ReadHeader(path)
		if err != nil {
			if !errors.Is(err, geomerr.ErrBadFormat) {
				t.Fatalf("untyped header error: %v", err)
			}
			return
		}
		got, err := ReadAll(path)
		if err != nil {
			if !errors.Is(err, geomerr.ErrBadFormat) {
				t.Fatalf("untyped read error: %v", err)
			}
			return
		}
		if int64(len(got)) != h.NumParticles {
			t.Fatalf("read %d particles, header says %d", len(got), h.NumParticles)
		}
		// Whatever the format layer accepted, sanitization must classify
		// without panicking under both policies, with and without a
		// domain, and account for every particle.
		for _, pol := range []Policy{PolicyFail, PolicyDrop} {
			for _, dom := range []geom.AABB{{}, {Max: geom.Vec3{X: 1, Y: 1, Z: 1}}} {
				out, _, rep, err := ValidateParticles(got, nil, ValidateOptions{Policy: pol, Domain: dom})
				if err != nil {
					if pol != PolicyFail || !errors.Is(err, geomerr.ErrBadParticle) {
						t.Fatalf("%v: untyped or unexpected error: %v", pol, err)
					}
					continue
				}
				if len(out) != rep.Kept || rep.Kept+rep.Dropped != len(got) ||
					rep.Dropped != rep.NonFinite+rep.BadMass+rep.OutOfDomain {
					t.Fatalf("%v: kept %d, report %v for %d particles", pol, len(out), rep, len(got))
				}
			}
		}
	})
}
