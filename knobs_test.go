package godtfe

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// knobAllow lists the fields of *Config / *Options structs under internal/
// that no program sets and that stay anyway because a test needs the hook.
// field is "<package dir>.<Struct>.<Field>"; test is "<package dir>.<Func>",
// a function of the directory's _test.go files whose body sets the field (a
// composite-literal key or the left side of an assignment) — so a field that
// nothing sets, tests included, cannot be listed. TestKnobsAreSet fails on an
// entry whose field is gone or set by a program again, or whose test is gone
// or no longer sets it.
var knobAllow = []struct{ field, reason, test string }{
	{"internal/render/distrender.Config.EvenTiles", "the even half of the bit-identity matrix: tile cuts that ignore the catalog", "internal/render/distrender.TestDistributedMatchesSingleRank"},
	{"internal/render/distrender.Config.Fault", "fault hook: crash points and straggler sleeps of the chaos suites", "internal/render/distrender.runDistributed"},
	{"internal/render/distrender.Config.TileTimeout", "shortens the 30 s straggler deadline so re-dispatch happens inside a test", "internal/render/distrender.TestChaosRankCrashMidTile"},
	{"internal/render/distrender.Config.Poll", "caps the gather wait so the cancel suite observes a cancellation within milliseconds", "internal/render/distrender.runCancelled"},
	{"internal/render/distrender.Config.MaxSendRetries", "shrinks the send retry budget so injected drops become real losses", "internal/render/distrender.TestChaosDroppedResult"},
	{"internal/render/distrender.Config.NoCoordinatorCompute", "forbids the root's self-compute fallback so a flagged-partial Result can be observed", "internal/render/distrender.TestChaosAllWorkersLost"},
}

// TestKnobsAreSet keeps options from outliving their callers. A field of a
// struct named *Config or *Options under internal/ is a knob; a knob earns
// its place when a non-test file outside the declaring package writes it — a
// composite-literal key, an assignment, ++/--, or its address taken (flag
// binding) — in any program of the module or in the benchmark harness.
// Structs the godtfe facade exposes are exempt: their callers are outside
// the module. Everything else must be a constant, go, or (fault and test
// hooks only) carry a knobAllow entry.
func TestKnobsAreSet(t *testing.T) {
	g, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	knobs := map[string]*types.Var{}
	for _, p := range g.l.pkgs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		for _, name := range p.types.Scope().Names() {
			tn, ok := p.types.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || g.roots[tn] || !strings.HasSuffix(name, "Config") && !strings.HasSuffix(name, "Options") {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					knobs[p.dir+"."+name+"."+st.Field(i).Name()] = st.Field(i)
				}
			}
		}
	}

	written := map[*types.Var]bool{}
	for _, p := range g.l.pkgs {
		// write records the field that a literal key or a selector names,
		// when another package declares it.
		write := func(e ast.Expr) {
			if sel, ok := e.(*ast.SelectorExpr); ok {
				e = sel.Sel
			}
			if id, ok := e.(*ast.Ident); ok {
				if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() && v.Pkg() != p.types {
					written[v] = true
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit: // keyed: go vet refuses unkeyed literals of imported structs
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							write(kv.Key)
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						write(lhs)
					}
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						write(n.X)
					}
				}
				return true
			})
		}
	}

	allowed := map[string]bool{}
	for _, a := range knobAllow {
		allowed[a.field] = true
		switch v := knobs[a.field]; {
		case v == nil:
			t.Errorf("knobAllow: %s no longer exists; drop the entry", a.field)
		case written[v]:
			t.Errorf("knobAllow: %s is set by a program again; drop the entry", a.field)
		}
		if err := testSets(a.test, a.field[strings.LastIndexByte(a.field, '.')+1:]); err != nil {
			t.Errorf("knobAllow: %s: %v", a.field, err)
		}
	}
	var unset []string
	for name, v := range knobs {
		if !written[v] && !allowed[name] {
			pos := g.l.fset.Position(v.Pos())
			unset = append(unset, fmt.Sprintf("%s:%d: no program sets %s", pos.Filename, pos.Line, name))
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("%s: make it a constant, delete it, or give a test hook its knobAllow entry", u)
	}
}

// testSets checks that the body of test sets a field called field: as a
// composite-literal key or on the left of an assignment.
func testSets(test, field string) error {
	fd, err := testFunc(test)
	if err != nil {
		return err
	}
	found := false
	named := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			e = sel.Sel
		}
		if id, ok := e.(*ast.Ident); ok && id.Name == field {
			found = true
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.KeyValueExpr:
			named(n.Key)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				named(lhs)
			}
		}
		return !found
	})
	if !found {
		return fmt.Errorf("%s does not set %s", test, field)
	}
	return nil
}
