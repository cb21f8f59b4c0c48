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

// TestKnobsAreSet keeps options from outliving their callers. A field of a
// struct named *Config or *Options under internal/ is a knob; a knob earns
// its place when a non-test file outside the declaring package writes it — a
// composite-literal key, an assignment, ++/--, or its address taken (flag
// binding) — in any program of the module or in the benchmark harness.
// Structs the godtfe facade exposes are exempt: their callers are outside
// the module. Everything else must be a constant or go. There are no
// exceptions: a behaviour only a test chooses is a parameter of an
// unexported function (distrender's hooks), never a field of a *Config or
// *Options.
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

	var unset []string
	for name, v := range knobs {
		if !written[v] {
			pos := g.l.fset.Position(v.Pos())
			unset = append(unset, fmt.Sprintf("%s:%d: no program sets %s", pos.Filename, pos.Line, name))
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("%s: make it a constant, delete it, or pass a test hook as a parameter", u)
	}
}
