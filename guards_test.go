package godtfe

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// scanProduction calls fn on every syntax node of the packages that ship —
// the root, internal/, cmd/ and examples/; the benchmark harness is loaded
// beside them but is not production — and fails the test with what fn
// reports, sorted by source position.
func scanProduction(t *testing.T, fn func(p *reachPkg, n ast.Node, report func(at ast.Node, msg string))) {
	t.Helper()
	g, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	var found []string
	report := func(at ast.Node, msg string) {
		found = append(found, fmt.Sprintf("%s: %s", g.l.fset.Position(at.Pos()), msg))
	}
	for _, p := range g.l.pkgs {
		if strings.HasPrefix(p.dir, "bench/") {
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if n != nil {
					fn(p, n, report)
				}
				return true
			})
		}
	}
	sort.Strings(found)
	for _, f := range found {
		t.Error(f)
	}
}

// TestNoPanicInProduction: whatever input or the environment can cause is a
// returned error — the geomerr taxonomy or a wrapped cause — in every
// production package, so no non-test file names the builtin panic. (A local
// function called panic is not the builtin and does not match.)
func TestNoPanicInProduction(t *testing.T) {
	builtin := types.Universe.Lookup("panic")
	scanProduction(t, func(p *reachPkg, n ast.Node, report func(ast.Node, string)) {
		if id, ok := n.(*ast.Ident); ok && p.info.Uses[id] == builtin {
			report(id, "call to the builtin panic in production code: return an error")
		}
	})
}

// TestNoSyncStateByValue: a receiver, parameter or result that passes by
// value a type holding sync or sync/atomic state — directly, in a field, in
// an embedded or nested struct or an array of them, in any package — copies
// its locks and forks its counters. Such types travel by pointer; the plain
// snapshot structs the Stats() methods return hold integers only. go vet's
// copylocks (make vet, not tier-1) finds such copies in assignments, range
// loops, receivers and parameters; this keeps the signature half in tier-1
// and adds results, which vet leaves out.
func TestNoSyncStateByValue(t *testing.T) {
	scanProduction(t, func(p *reachPkg, n ast.Node, report func(ast.Node, string)) {
		check := func(kind string, list *ast.FieldList) {
			if list == nil {
				return
			}
			for _, field := range list.List {
				typ := p.info.TypeOf(field.Type)
				if state := syncStateIn(typ); state != "" {
					report(field, fmt.Sprintf("%s passes %s by value, copying its %s", kind, types.TypeString(typ, types.RelativeTo(p.types)), state))
				}
			}
		}
		switch n := n.(type) {
		case *ast.FuncDecl:
			check("receiver", n.Recv)
		case *ast.FuncType:
			check("parameter", n.Params)
			check("result", n.Results)
		}
	})
}

// syncStateIn names the first piece of sync or sync/atomic state a copy of
// a typ value would copy, or "" when there is none. Pointers, slices, maps,
// channels, funcs and interfaces share what they refer to, so the search
// stops there (and so terminates: a struct cannot contain itself by value).
func syncStateIn(typ types.Type) string {
	switch typ := types.Unalias(typ).(type) {
	case *types.Named:
		if types.IsInterface(typ) {
			return ""
		}
		if pkg := typ.Obj().Pkg(); pkg != nil && (pkg.Path() == "sync" || pkg.Path() == "sync/atomic") {
			return pkg.Name() + "." + typ.Obj().Name()
		}
		return syncStateIn(typ.Underlying())
	case *types.Struct:
		for i := 0; i < typ.NumFields(); i++ {
			if state := syncStateIn(typ.Field(i).Type()); state != "" {
				return state + " (field " + typ.Field(i).Name() + ")"
			}
		}
	case *types.Array:
		return syncStateIn(typ.Elem())
	}
	return ""
}
