package dismastd

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestEveryInternalPackageIsReachable walks the import graph from what
// ships — the non-test code of this package and of every cmd/ main — and
// fails for any internal/ directory holding non-test Go code that the
// walk never reaches: a package only its own tests (or a golden) keep
// alive is maintained for nobody.
func TestEveryInternalPackageIsReachable(t *testing.T) {
	const module = "dismastd"
	fset := token.NewFileSet()
	// imports returns the module-local directories the non-test files of
	// dir import.
	imports := func(dir string) (deps []string) {
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool { return isShipped(t, dir, fi.Name()) }, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, imp := range f.Imports {
					p, err := strconv.Unquote(imp.Path.Value)
					if err != nil {
						t.Fatal(err)
					}
					if rel, ok := strings.CutPrefix(p, module+"/"); ok {
						deps = append(deps, path.Clean(rel))
					}
				}
			}
		}
		return deps
	}

	queue := []string{"."}
	mains, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mains {
		if m.IsDir() {
			queue = append(queue, path.Join("cmd", m.Name()))
		}
	}
	reached := map[string]bool{}
	for len(queue) > 0 {
		dir := queue[0]
		queue = queue[1:]
		if !reached[dir] {
			reached[dir] = true
			queue = append(queue, imports(filepath.FromSlash(dir))...)
		}
	}

	err = filepath.WalkDir("internal", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !isShipped(t, filepath.Dir(p), d.Name()) {
			return err
		}
		if dir := filepath.ToSlash(filepath.Dir(p)); !reached[dir] {
			reached[dir] = true // one report per directory
			t.Errorf("%s is imported by no binary and not by the public API", dir)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// isShipped reports whether the file name in dir is non-test Go code
// the build of this platform compiles: a file whose //go:build line or
// _GOOS/_GOARCH suffix excludes it is left out, so a per-architecture
// pair of files declaring one function is read as the build reads it.
func isShipped(t *testing.T, dir, name string) bool {
	if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
		return false
	}
	ok, err := build.Default.MatchFile(dir, name)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

// stdlibMethods names the methods of the standard-library interfaces a
// type in this module implements. The library calls them, never a file
// of this module, so a method of one of these names counts as used.
var stdlibMethods = map[string]bool{
	// fmt.Stringer, which fmt and log/slog call on the values they format
	"String": true,
	// sort.Interface
	"Len": true, "Less": true, "Swap": true,
	// slog.Handler
	"Enabled": true, "Handle": true, "WithAttrs": true, "WithGroup": true,
}

// reachabilityAllowlist names the declarations in internal/ that only
// tests call on purpose, keyed as package.Name or package.Type.Method,
// each with the reason it cannot live in a _test.go file: every entry
// is called by the tests of another package, which cannot import a
// _test.go file.
var reachabilityAllowlist = map[string]string{
	"mttkrp.Compute":             "the flat COO MTTKRP, the oracle the layout and goldens tests hold the kernels to",
	"mat.MulInto":                "dense product oracle of the dtd and mttkrp reference tests",
	"mat.MaxAbsDiff":             "the factor comparison of the equivalence tests in eleven packages",
	"mat.RandomGaussian":         "signed random factors for the layout, mttkrp and root kernel tests",
	"tensor.Tensor.ToDense":      "dense expansion the mttkrp inner-product oracle reads",
	"cluster.NewFaultPlan":       "fault-injection seam the core chaos and elastic tests drive",
	"cluster.Local.SetFaultPlan": "installs a fault plan on the in-process cluster for the core chaos tests",
	"cluster.FaultPlan.FiredOp":  "tells the core chaos tests which scripted fault fired",
	"dtd.Init":                   "static CP-ALS on the world-of-one binding, the oracle the goldens and the core tests hold a one-worker core.Step from dtd.EmptyState to",
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// TestShippedCodeIsCalledByWhatShips is the declaration-level companion
// of TestEveryInternalPackageIsReachable: it fails for every top-level
// func, method and type in internal/, exported or not, that no non-test
// .go file of the module uses outside its own declaration. Uses are
// resolved by type: the non-test files of every package in the module
// that this platform's build selects are type-checked (the standard
// library from its source), and an identifier counts as a use of the
// declaration it denotes, so a method of one type is not kept alive by
// a same-name method of another. A method is also used when shipped
// code calls a method of that name on an interface the method's type
// implements, or when it implements one of stdlibMethods. Files under
// benchmark/ and examples/ count as users; a method's receiver is not a
// use of its type. A declaration only tests call is moved into the
// package's _test.go files, deleted with its tests, or named in
// reachabilityAllowlist.
func TestShippedCodeIsCalledByWhatShips(t *testing.T) {
	const module = "dismastd"
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // package directory -> its non-test files
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !isShipped(t, filepath.Dir(p), d.Name()) {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		files[dir] = append(files[dir], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Type-check every package; a module import is checked on demand
	// from the files above, anything else comes from GOROOT source.
	std := importer.ForCompiler(fset, "source", nil)
	infos := map[string]*types.Info{}
	checked := map[string]*types.Package{}
	var check func(dir string) (*types.Package, error)
	conf := types.Config{Importer: importerFunc(func(p string) (*types.Package, error) {
		if p == module {
			return check(".")
		}
		if rel, ok := strings.CutPrefix(p, module+"/"); ok {
			return check(rel)
		}
		return std.Import(p)
	})}
	check = func(dir string) (*types.Package, error) {
		if pkg, ok := checked[dir]; ok {
			return pkg, nil
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		pkg, err := conf.Check(path.Join(module, dir), fset, files[dir], info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %w", dir, err)
		}
		checked[dir], infos[dir] = pkg, info
		return pkg, nil
	}

	type decl struct {
		key  string // package.Name or package.Type.Method
		obj  types.Object
		node ast.Node
		pos  token.Position
	}
	var decls []decl
	// uses[obj] holds the top-level func or spec of each identifier
	// denoting obj; called holds the interface methods shipped code names.
	uses := map[types.Object][]ast.Node{}
	called := map[*types.Func]bool{}
	for dir, fs := range files {
		if _, err := check(dir); err != nil {
			t.Fatal(err)
		}
		info := infos[dir]
		gated := strings.HasPrefix(dir, "internal/")
		for _, f := range fs {
			var owners []ast.Node
			var recvs []*ast.Ident // receiver types: declaring, not using
			for _, dn := range f.Decls {
				switch dn := dn.(type) {
				case *ast.FuncDecl:
					owners = append(owners, dn)
					key := dn.Name.Name
					if dn.Recv != nil {
						recv := receiverType(dn.Recv.List[0].Type)
						recvs = append(recvs, recv)
						key = recv.Name + "." + key
					}
					if gated && dn.Name.Name != "init" {
						decls = append(decls, decl{f.Name.Name + "." + key, info.Defs[dn.Name], dn, fset.Position(dn.Pos())})
					}
				case *ast.GenDecl:
					for _, s := range dn.Specs {
						owners = append(owners, s)
						if ts, ok := s.(*ast.TypeSpec); ok && gated {
							decls = append(decls, decl{f.Name.Name + "." + ts.Name.Name, info.Defs[ts.Name], ts, fset.Position(ts.Pos())})
						}
					}
				}
			}
			for _, n := range owners {
				ast.Inspect(n, func(x ast.Node) bool {
					id, ok := x.(*ast.Ident)
					if !ok || slices.Contains(recvs, id) {
						return true
					}
					obj := info.Uses[id]
					if fn, ok := obj.(*types.Func); ok {
						if r := fn.Type().(*types.Signature).Recv(); r != nil && types.IsInterface(r.Type()) {
							called[fn] = true
						}
					}
					if obj != nil {
						uses[obj] = append(uses[obj], n)
					}
					return true
				})
			}
		}
	}
	if len(decls) == 0 {
		t.Fatal("found no declarations under internal/")
	}
	// implemented reports whether fn is a method shipped code reaches
	// through an interface: a call of that name on an interface its
	// receiver type (or a pointer to it) implements.
	implemented := func(fn *types.Func) bool {
		sig := fn.Type().(*types.Signature)
		if sig.Recv() == nil {
			return false
		}
		if stdlibMethods[fn.Name()] {
			return true
		}
		recv := sig.Recv().Type()
		if _, ok := recv.(*types.Pointer); !ok {
			recv = types.NewPointer(recv)
		}
		for im := range called {
			iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if im.Name() == fn.Name() && types.Implements(recv, iface) {
				return true
			}
		}
		return false
	}
	allowed := 0
	for _, d := range decls {
		used := slices.ContainsFunc(uses[d.obj], func(n ast.Node) bool { return n != d.node })
		if fn, ok := d.obj.(*types.Func); ok && !used {
			used = implemented(fn)
		}
		if _, ok := reachabilityAllowlist[d.key]; ok {
			allowed++
			if used {
				t.Errorf("%s is allowlisted but shipped code uses it: drop the entry", d.key)
			}
		} else if !used {
			t.Errorf("%s: %s is used by no non-test file", d.pos, d.key)
		}
	}
	if allowed != len(reachabilityAllowlist) {
		t.Errorf("%d allowlist entries name no declaration under internal/", len(reachabilityAllowlist)-allowed)
	}
	if len(reachabilityAllowlist) > 10 {
		t.Errorf("the allowlist holds %d names; at most 10", len(reachabilityAllowlist))
	}
}

// receiverType returns the type name of a method receiver expression:
// T, *T, T[P] or *T[P], parenthesised or not.
func receiverType(x ast.Expr) *ast.Ident {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		default:
			return x.(*ast.Ident)
		}
	}
}
