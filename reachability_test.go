package dismastd

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
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
