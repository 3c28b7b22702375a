package dismastd

import (
	"go/ast"
	"go/parser"
	"go/token"
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
	isShipped := func(name string) bool {
		return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
	}
	// imports returns the module-local directories the non-test files of
	// dir import.
	imports := func(dir string) (deps []string) {
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool { return isShipped(fi.Name()) }, parser.ImportsOnly)
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
		if err != nil || d.IsDir() || !isShipped(d.Name()) {
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

// stdlibMethods names the methods of the standard-library interfaces a
// type in this module implements. The library calls them, never a file
// of this module, so a method of one of these names counts as used.
var stdlibMethods = map[string]bool{
	// sort.Interface
	"Len": true, "Less": true, "Swap": true,
	// heap.Interface
	"Push": true, "Pop": true,
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
	"cluster.Local.SetElastic":   "drain-then-fail semantics the core elastic tests run in-process",
}

// TestShippedCodeIsCalledByWhatShips is the declaration-level companion
// of TestEveryInternalPackageIsReachable: it fails for every top-level
// func, method and type in internal/, exported or not, that no non-test
// .go file of the module names outside its own declaration. Any
// identifier of the same name counts as a use, so a method is kept
// alive by a call on any type; files under benchmark/ and examples/
// count as users. A declaration only tests call is moved into the
// package's _test.go files, deleted with its tests, or named in
// reachabilityAllowlist.
func TestShippedCodeIsCalledByWhatShips(t *testing.T) {
	type decl struct {
		key  string // package.Name or package.Type.Method
		name string
		node ast.Node
		pos  token.Position
	}
	fset := token.NewFileSet()
	var decls []decl
	// uses[name] holds, for each identifier spelling name, the top-level
	// func or spec it appears in.
	uses := map[string][]ast.Node{}
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
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		gated := strings.HasPrefix(filepath.ToSlash(p), "internal/")
		// Identifiers that declare rather than use: a func's or type's
		// own name, and a method's receiver type — a type only its own
		// methods name is not used.
		declaring := map[*ast.Ident]bool{}
		var owners []ast.Node
		for _, dn := range f.Decls {
			switch dn := dn.(type) {
			case *ast.FuncDecl:
				owners = append(owners, dn)
				declaring[dn.Name] = true
				key := dn.Name.Name
				if dn.Recv != nil {
					recv := receiverType(dn.Recv.List[0].Type)
					declaring[recv] = true
					key = recv.Name + "." + key
				}
				exempt := dn.Name.Name == "init" || dn.Recv != nil && stdlibMethods[dn.Name.Name]
				if gated && !exempt {
					decls = append(decls, decl{f.Name.Name + "." + key, dn.Name.Name, dn, fset.Position(dn.Pos())})
				}
			case *ast.GenDecl:
				for _, s := range dn.Specs {
					owners = append(owners, s)
					if ts, ok := s.(*ast.TypeSpec); ok {
						declaring[ts.Name] = true
						if gated {
							decls = append(decls, decl{f.Name.Name + "." + ts.Name.Name, ts.Name.Name, ts, fset.Position(ts.Pos())})
						}
					}
				}
			}
		}
		for _, n := range owners {
			ast.Inspect(n, func(x ast.Node) bool {
				if id, ok := x.(*ast.Ident); ok && !declaring[id] {
					uses[id.Name] = append(uses[id.Name], n)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no declarations under internal/")
	}
	allowed := 0
	for _, d := range decls {
		used := slices.ContainsFunc(uses[d.name], func(n ast.Node) bool { return n != d.node })
		if _, ok := reachabilityAllowlist[d.key]; ok {
			allowed++
			if used {
				t.Errorf("%s is allowlisted but shipped code names it: drop the entry", d.key)
			}
		} else if !used {
			t.Errorf("%s: %s is named by no non-test file", d.pos, d.key)
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
