package main

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A by-value receiver planted where the go tool does not look — under a
// dot-directory (the parent checkout `make bench-ab` unpacks), an
// underscore directory, testdata — must not fail the audit of the tree
// around it, nor may a file there that does not parse; the same receiver in
// a real package must.
func TestWalkSkipsWhatTheGoToolSkips(t *testing.T) {
	const violation = `package p

import "sync"

type counter struct{ mu sync.Mutex }

func (c counter) get() {}
`
	root := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(".bench_build/ab/parent/internal/p/p.go", violation)
	write(".bench_build/ab/parent/internal/p/broken.go", "package p\nfunc {")
	write("_attic/p.go", violation)
	write("internal/p/testdata/p.go", violation)
	write("internal/p/clean.go", "package p\n")

	audited := func(dir string) []string {
		t.Helper()
		fset := token.NewFileSet()
		pkgs, err := parseTree(fset, []string{dir})
		if err != nil {
			t.Fatal(err)
		}
		return audit(fset, pkgs)
	}
	if got := audited(root); len(got) != 0 {
		t.Fatalf("clean tree flagged through a skipped directory: %q", got)
	}

	write("internal/q/q.go", violation)
	got := audited(root)
	if len(got) != 1 || !strings.Contains(got[0], filepath.Join("internal", "q", "q.go")+":7:") || !strings.Contains(got[0], "receiver passes counter by value") {
		t.Fatalf("findings = %q, want the receiver in internal/q/q.go", got)
	}
	// A root named explicitly is audited whatever it is called.
	if got := audited(filepath.Join(root, "_attic")); len(got) != 1 {
		t.Fatalf("explicit root _attic: findings = %q, want 1", got)
	}
}
