// Command nocopy-audit is the structural half of `make nocopy`: it
// complements `go vet -copylocks` (which catches copies of values whose
// types carry a Lock method) with a source-level scan for the telemetry
// foot-gun vet's dataflow can miss — declaring a function receiver,
// parameter, or result as a by-value instance of a struct that embeds
// sync or sync/atomic state. Copying such a struct forks its counters
// (and its locks), so every Stats-bearing service type must travel by
// pointer; the plain snapshot structs returned by Stats() methods hold
// only plain integers and are exempt by construction.
//
// Exit status is nonzero if any violation is found; output is one
// file:line per offense.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// guardedField reports whether a struct field's type names concurrency
// state that must never be copied: sync.Mutex and friends, or any
// sync/atomic value type.
func guardedField(expr ast.Expr) bool {
	switch t := expr.(type) {
	case *ast.SelectorExpr:
		pkg, ok := t.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch pkg.Name {
		case "sync":
			switch t.Sel.Name {
			case "Mutex", "RWMutex", "WaitGroup", "Cond", "Once", "Map", "Pool":
				return true
			}
		case "atomic":
			switch t.Sel.Name {
			case "Bool", "Int32", "Int64", "Uint32", "Uint64", "Uintptr", "Value", "Pointer":
				return true
			}
		}
	case *ast.IndexExpr: // atomic.Pointer[T]
		return guardedField(t.X)
	}
	return false
}

// structGuarded reports whether any field of the struct (directly, or
// via an array of them) is guarded.
func structGuarded(st *ast.StructType) bool {
	for _, f := range st.Fields.List {
		t := f.Type
		if at, ok := t.(*ast.ArrayType); ok {
			t = at.Elt
		}
		if guardedField(t) {
			return true
		}
	}
	return false
}

// parseTree parses every .go file under roots (tests included: they copy
// too), grouped by directory. Like the go tool it skips directories whose
// name starts with "." or "_" and testdata — .bench_build can hold a whole
// checkout of another revision — but never a root itself.
func parseTree(fset *token.FileSet, roots []string) (map[string][]*ast.File, error) {
	pkgs := map[string][]*ast.File{}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") || n == "testdata") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			dir := filepath.Dir(path)
			pkgs[dir] = append(pkgs[dir], f)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

// audit returns one "file:line: ..." finding per by-value receiver,
// parameter or result of a struct that carries locks or atomics.
func audit(fset *token.FileSet, pkgs map[string][]*ast.File) []string {
	var findings []string
	for _, files := range pkgs {
		// Pass 1: which named structs in this package carry locks/atomics?
		guarded := map[string]bool{}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				if st, ok := ts.Type.(*ast.StructType); ok && structGuarded(st) {
					guarded[ts.Name.Name] = true
				}
				return true
			})
		}
		if len(guarded) == 0 {
			continue
		}
		// Pass 2: flag by-value receivers, params, and results of those
		// types. A bare Ident of a guarded name in a signature is a copy.
		flag := func(fields *ast.FieldList, kind string) {
			if fields == nil {
				return
			}
			for _, field := range fields.List {
				if id, ok := field.Type.(*ast.Ident); ok && guarded[id.Name] {
					findings = append(findings, fmt.Sprintf("%s: %s passes %s by value (copies its locks/atomics)",
						fset.Position(field.Pos()), kind, id.Name))
				}
			}
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					flag(fd.Recv, "receiver")
					flag(fd.Type.Params, "parameter")
					flag(fd.Type.Results, "result")
				}
			}
		}
	}
	return findings
}

func main() {
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = []string{"."}
	}
	fset := token.NewFileSet()
	pkgs, err := parseTree(fset, roots)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nocopy-audit: %v\n", err)
		os.Exit(2)
	}
	findings := audit(fset, pkgs)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
	fmt.Println("nocopy-audit: clean")
}
