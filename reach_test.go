package godtfe

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// reachAllow lists the declarations under internal/, cmd/ and examples/ that
// no program reaches and that stay anyway, by one rule: a surviving test
// compares reachable code against the declaration, or cannot drive reachable
// code without it. ident is "<package dir>.<Name>" or
// "<package dir>.<Receiver>.<Method>"; test is "<package dir>.<TestFunc>",
// a test function whose body names the identifier. TestProductionIsReachable
// fails on an entry whose identifier is gone or reachable again, or whose
// test is gone or no longer mentions it.
var reachAllow = []struct{ ident, reason, test string }{
	{"internal/delaunay.NewInputOrder", "reference build the order-independence suites compare New against", "internal/delaunay.TestBuildOrderIndependence"},
	{"internal/geom.SetOracleFallback", "switches the reachable predicates onto the big.Rat oracle they are compared with (ROADMAP: Oracle switch)", "internal/geom.TestPublicPredicatesMatchOracle"},
	{"internal/mpi.World.SetInjector", "fault hook: the only way a test drops, delays or kills a rank's traffic", "internal/mpi.TestInjectedDropsAreRetried"},
	{"internal/mpi.FailedRank", "reads the failed rank out of the reachable RankError chain the attribution suites assert on", "internal/mpi.TestCollectiveFailureAttribution"},
	{"internal/mpi.World.TotalBytes", "world-wide sum the reachable per-rank Comm.BytesSent is checked against", "internal/mpi.TestByteAccounting"},
	{"internal/mpi.World.TotalMessages", "only reader of the per-rank message counter the reachable send path maintains", "internal/mpi.TestByteAccounting"},
	{"internal/nbody.DirectAccel", "O(N^2) reference the Barnes-Hut solver is compared with", "internal/nbody.TestBHMatchesDirectSmallTheta"},
	{"internal/nbody.PowerSpectrum", "measures the clustering the reachable PM integrator must grow", "internal/nbody.TestPowerSpectrumGrowsUnderGravity"},
	{"internal/nbody.Sim.Momentum", "conservation check of the reachable PM integrator", "internal/nbody.TestMomentumConservation"},
	{"internal/particleio.WriteWithVelocities", "only producer of the velocity-block files the reachable reader must parse", "internal/particleio.TestVelocitiesRoundTrip"},
	{"internal/render.exitVertical", "AoS reference of the SoA exit kernel, and of refTryColumn in TestMarchMatchesReference", "internal/render.TestExitVerticalMatchesCrossZ"},
	{"internal/sched.CommList.BalancedTimes", "applies a schedule's transfers: how the suites check the reachable CreateCommunicationList leaves no rank above the mean", "internal/sched.TestCommListPropertyRandom"},
}

// TestProductionIsReachable type-checks every package of the module plus the
// benchmark harness and walks the reference graph of top-level declarations
// from what a user can run or call: main of every program (cmd/*, examples/*,
// bench/e2e), every init, the exported API of this package together with the
// exported method sets of the internal types it aliases, returns or exposes
// through fields, and — for a reached type — each method through which it
// implements some interface. A declaration under internal/, cmd/ or examples/
// that this walk does not reach is test-only or dead: delete it with its
// tests, or give it a reachAllow entry.
func TestProductionIsReachable(t *testing.T) {
	g, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	reached := map[types.Object]bool{}
	for obj := range g.roots {
		g.visit(reached, obj)
	}
	var allowed []types.Object
	for _, a := range reachAllow {
		obj := g.byName[a.ident]
		switch {
		case obj == nil:
			t.Errorf("reachAllow: %s no longer exists; drop the entry", a.ident)
			continue
		case reached[obj]:
			t.Errorf("reachAllow: %s is reachable from a program again; drop the entry", a.ident)
		}
		allowed = append(allowed, obj)
		if err := testMentions(a.test, a.ident[strings.LastIndexByte(a.ident, '.')+1:]); err != nil {
			t.Errorf("reachAllow: %s: %v", a.ident, err)
		}
	}
	for _, obj := range allowed {
		g.visit(reached, obj)
	}

	var dead []string
	for name, obj := range g.byName {
		if !reached[obj] && !strings.HasPrefix(name, "bench/") {
			pos := g.l.fset.Position(obj.Pos())
			dead = append(dead, fmt.Sprintf("%s:%d: %s", pos.Filename, pos.Line, name))
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("unreachable from every program and from the godtfe API: %s", d)
	}
}

// loadModule type-checks the non-test files of every package of the module
// and of the benchmark harness, once for all the tests that scan them, and
// builds the reference graph over their top-level declarations.
var loadModule = sync.OnceValues(func() (*reachGraph, error) {
	fset := token.NewFileSet()
	l := &reachLoader{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*reachPkg{}}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); path != "." && (n[0] == '.' || n[0] == '_' || n == "testdata") {
			return filepath.SkipDir
		}
		if goFiles, _ := filepath.Glob(filepath.Join(path, "*.go")); len(goFiles) == 0 {
			return nil
		}
		_, err = l.Import(filepath.ToSlash(filepath.Join("godtfe", path)))
		return err
	})
	if err != nil {
		return nil, err
	}
	f, err := parser.ParseFile(fset, "literals.go", stdLiterals, 0)
	if err != nil {
		return nil, err
	}
	if l.literals, err = new(types.Config).Check("literals", fset, []*ast.File{f}, nil); err != nil {
		return nil, err
	}
	return newReachGraph(l), nil
})

// reachPkg is one type-checked package: its non-test files that match the
// build constraints of this platform.
type reachPkg struct {
	dir   string // slash-separated, relative to the repository root
	types *types.Package
	files []*ast.File
	info  *types.Info
}

// reachLoader imports "godtfe/..." from the directory tree (bench/e2e is a
// module of its own but lives at godtfe/bench/e2e) and everything else, the
// standard library, from source.
type reachLoader struct {
	fset     *token.FileSet
	std      types.Importer
	pkgs     map[string]*reachPkg
	literals *types.Package
}

// stdLiterals names the interfaces package errors matches by literal, which
// no package scope lists.
const stdLiterals = `package literals

type (
	Unwrapper  interface{ Unwrap() error }
	Unwrappers interface{ Unwrap() []error }
	Iser       interface{ Is(error) bool }
	Aser       interface{ As(any) bool }
)`

func (l *reachLoader) Import(path string) (*types.Package, error) {
	if path != "godtfe" && !strings.HasPrefix(path, "godtfe/") {
		return l.std.Import(path)
	}
	if p := l.pkgs[path]; p != nil {
		return p.types, nil
	}
	p := &reachPkg{dir: strings.TrimPrefix(strings.TrimPrefix(path, "godtfe"), "/")}
	if p.dir == "" {
		p.dir = "."
	}
	names, err := filepath.Glob(filepath.Join(p.dir, "*.go"))
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		if ok, err := build.Default.MatchFile(p.dir, filepath.Base(name)); err != nil || !ok || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: l, GoVersion: "go1.22"}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p.types, nil
}

// reachGraph has one node per top-level func, method, type, var and const of
// the loaded packages and an edge to every node a declaration's source names.
type reachGraph struct {
	l      *reachLoader
	byName map[string]types.Object
	edges  map[types.Object][]types.Object
	roots  map[types.Object]bool
}

func newReachGraph(l *reachLoader) *reachGraph {
	g := &reachGraph{l: l, byName: map[string]types.Object{}, edges: map[types.Object][]types.Object{}, roots: map[types.Object]bool{}}
	type decl struct {
		obj  types.Object
		node ast.Node
		info *types.Info
	}
	var decls []decl
	isNode := map[types.Object]bool{}
	for _, p := range l.pkgs {
		add := func(id *ast.Ident, node ast.Node) {
			obj := p.info.Defs[id]
			if obj == nil {
				return
			}
			decls = append(decls, decl{obj, node, p.info})
			isNode[obj] = true
			name := id.Name
			if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
				recv := sig.Recv().Type()
				if ptr, ok := recv.(*types.Pointer); ok {
					recv = ptr.Elem()
				}
				name = recv.(*types.Named).Obj().Name() + "." + name
			} else if name == "_" || name == "init" || name == "main" && p.types.Name() == "main" {
				g.roots[obj] = true // runs, or is checked, in every program that links the package
				return
			}
			g.byName[p.dir+"."+name] = obj
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					add(d.Name, d)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, s)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, s)
							}
						}
					}
				}
			}
		}
	}
	for _, d := range decls {
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				to := d.info.Uses[id]
				if f, ok := to.(*types.Func); ok {
					to = f.Origin()
				}
				if isNode[to] {
					g.edges[d.obj] = append(g.edges[d.obj], to)
				}
			}
			return true
		})
	}

	// A reached type carries the methods through which it implements an
	// interface: they can be called without being named.
	var ifaces []*types.Interface
	seen := map[*types.Package]bool{}
	var collect func(*types.Package)
	collect = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range tp.Imports() {
			collect(imp)
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	collect(l.literals)
	for _, p := range l.pkgs {
		collect(p.types)
		for e, tv := range p.info.Types {
			if _, lit := e.(*ast.InterfaceType); lit {
				if it := tv.Type.Underlying().(*types.Interface); it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	for obj := range isNode {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
			continue
		}
		ptr := types.NewPointer(named)
		if types.NewMethodSet(ptr).Len() == 0 {
			continue
		}
		for _, it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m, _, _ := types.LookupFieldOrMethod(ptr, true, it.Method(i).Pkg(), it.Method(i).Name())
				if isNode[m] {
					g.edges[obj] = append(g.edges[obj], m)
				}
			}
		}
	}

	// The facade: every exported name of package godtfe, and everything a
	// caller can get to from the types those names expose.
	exposed := map[types.Type]bool{}
	var expose func(types.Type)
	expose = func(typ types.Type) {
		if typ == nil || exposed[typ] {
			return
		}
		exposed[typ] = true
		switch typ := typ.(type) {
		case *types.Alias:
			expose(types.Unalias(typ))
		case *types.Pointer:
			expose(typ.Elem())
		case *types.Slice:
			expose(typ.Elem())
		case *types.Array:
			expose(typ.Elem())
		case *types.Chan:
			expose(typ.Elem())
		case *types.Map:
			expose(typ.Key())
			expose(typ.Elem())
		case *types.Tuple:
			for i := 0; i < typ.Len(); i++ {
				expose(typ.At(i).Type())
			}
		case *types.Signature:
			expose(typ.Params())
			expose(typ.Results())
		case *types.Struct:
			for i := 0; i < typ.NumFields(); i++ {
				if typ.Field(i).Exported() {
					expose(typ.Field(i).Type())
				}
			}
		case *types.Interface:
			for i := 0; i < typ.NumMethods(); i++ {
				expose(typ.Method(i).Type())
			}
		case *types.Named:
			if !isNode[typ.Obj()] {
				return // standard library
			}
			g.roots[typ.Obj()] = true
			expose(typ.Underlying())
			for ms, i := types.NewMethodSet(types.NewPointer(typ)), 0; i < ms.Len(); i++ {
				if m := ms.At(i).Obj().(*types.Func); m.Exported() {
					g.roots[m.Origin()] = true
					expose(m.Type())
				}
			}
		}
	}
	scope := l.pkgs["godtfe"].types.Scope()
	for _, name := range scope.Names() {
		if obj := scope.Lookup(name); obj.Exported() {
			g.roots[obj] = true
			expose(obj.Type())
		}
	}
	return g
}

// visit adds obj and everything reachable from it to reached.
func (g *reachGraph) visit(reached map[types.Object]bool, obj types.Object) {
	if reached[obj] {
		return
	}
	reached[obj] = true
	for _, to := range g.edges[obj] {
		g.visit(reached, to)
	}
}

// testFunc parses test ("<package dir>.<TestFunc>") out of the directory's
// _test.go files.
func testFunc(test string) (*ast.FuncDecl, error) {
	dot := strings.LastIndexByte(test, '.')
	dir, fn := test[:dot], test[dot+1:]
	names, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
	for _, name := range names {
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == fn && fd.Body != nil {
				return fd, nil
			}
		}
	}
	return nil, fmt.Errorf("test %s not found in %s", fn, dir)
}

// testMentions checks that the body of test names ident.
func testMentions(test, ident string) error {
	fd, err := testFunc(test)
	if err != nil {
		return err
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == ident {
			found = true
		}
		return !found
	})
	if !found {
		return fmt.Errorf("%s no longer mentions %s", test, ident)
	}
	return nil
}
