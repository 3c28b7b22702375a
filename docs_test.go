package dismastd

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDocsNameOnlyWhatShips holds the prose to the code: every
// standalone backticked `-flag` in the user-facing documents must be
// registered by some cmd/*/main.go (as fs.String("name", …) and the
// other typed variants), every backticked `/metrics` or `/debug/...`
// path must be served by a pattern cmd/worker registers on a mux, and
// every backticked `pkg.Ident` whose pkg names a package of this module
// must name a top-level declaration of that package (a `Type.Member`
// after it is not checked). A name the code spells in a string — a
// metric, span or benchmark row such as `mttkrp.rows` — is not an
// identifier and passes. Every backticked repository path must exist
// in the tree (see repoPath), and every backticked Prometheus series
// must be one that non-test Go registers (see metricSeries). All sides
// are read with go/parser or from the tree itself, so renaming or
// deleting a flag, an endpoint, a declaration, a metric or a file
// without its documentation fails here.
func TestDocsNameOnlyWhatShips(t *testing.T) {
	flags := map[string]bool{}
	mains, err := filepath.Glob(filepath.Join("cmd", "*", "main.go"))
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd/*/main.go found (%v)", err)
	}
	for _, path := range mains {
		eachCall(t, path, func(method string, args []ast.Expr) {
			switch method {
			case "Bool", "Duration", "Float64", "Int", "Int64", "String", "Uint", "Uint64":
				if name, ok := stringArg(args, 0); ok {
					flags[name] = true
				}
			}
		})
	}
	var patterns []string
	workerFiles, err := filepath.Glob(filepath.Join("cmd", "worker", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range workerFiles {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		eachCall(t, path, func(method string, args []ast.Expr) {
			if method != "Handle" && method != "HandleFunc" {
				return
			}
			if p, ok := stringArg(args, 0); ok {
				// Go 1.22 patterns may lead with a method: "GET /path".
				patterns = append(patterns, p[strings.LastIndexByte(p, ' ')+1:])
			}
		})
	}
	served := func(path string) bool {
		for _, p := range patterns {
			if p == path || strings.HasSuffix(p, "/") && strings.HasPrefix(path, p) {
				return true
			}
		}
		return false
	}
	if !flags["debug-addr"] || !served("/metrics") {
		t.Fatalf("parsing found %d flags and mux patterns %v, missing -debug-addr or /metrics", len(flags), patterns)
	}

	decls, spelled := moduleNames(t)
	if !decls["dismastd"]["NewStream"] || !decls["obscluster"]["NewPlane"] {
		t.Fatalf("parsing found %d packages, missing dismastd.NewStream or obscluster.NewPlane", len(decls))
	}

	tree := treePaths(t)

	series := metricSeries(t)
	if !series.has("plane_fences") || !series.has("runtime_heap_bytes") || !series.has("plane_fence_gather_ns_p50") {
		t.Fatalf("parsing found metric namespaces %v, missing plane_fences, runtime_heap_bytes or plane_fence_gather_ns_p50", series.namespaces)
	}

	flagSpan := regexp.MustCompile(`^-([a-z][a-z0-9-]*)(=|\s|$)`)
	// A qualified identifier not itself qualified or inside a path: the
	// `/` keeps file names like internal/mat/mat.go out.
	qualified := regexp.MustCompile(`(^|[^\w./])` + qualifiedName)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")} {
		for _, c := range codeSpans(t, doc) {
			if m := flagSpan.FindStringSubmatch(c.text); m != nil && !flags[m[1]] {
				t.Errorf("%s:%d: `%s` names flag -%s, which no cmd/*/main.go registers", doc, c.line, c.text, m[1])
			}
			if c.text == "/metrics" || strings.HasPrefix(c.text, "/metrics ") || strings.HasPrefix(c.text, "/debug/") {
				path, _, _ := strings.Cut(strings.Fields(c.text)[0], "?")
				if !served(path) {
					t.Errorf("%s:%d: `%s` names endpoint %s, which the worker's debug listener does not serve", doc, c.line, c.text, path)
				}
			}
			if p, ok := repoPath(c.text); ok && !tree.has(p) {
				t.Errorf("%s:%d: `%s` names %s, which is not in the tree", doc, c.line, c.text, p)
			}
			if name, ok := series.named(c.text); ok && !series.has(name) {
				t.Errorf("%s:%d: `%s` names series %s, which no non-test Go registers", doc, c.line, c.text, name)
			}
			for _, m := range qualified.FindAllStringSubmatch(c.text, -1) {
				pkg, ident := m[2], m[3]
				if names, ok := decls[pkg]; ok && !names[ident] && !spelled[pkg+"."+ident] {
					t.Errorf("%s:%d: `%s` names %s.%s, which package %s does not declare", doc, c.line, c.text, pkg, ident, pkg)
				}
			}
		}
	}
}

// repoPath reports whether a code span is one repository path and
// returns it cleaned: a single token naming a file ending in .go, .md,
// .sh or .json, or starting with internal/, cmd/, examples/, benchmark/
// or results/, with any leading "./", trailing "/..." or "/" and ":line"
// suffix dropped. Tokens with a placeholder or glob (<K>, *, {a,b}) are
// templates, not paths; span names such as plan/stack and import paths
// such as log/slog match neither rule.
func repoPath(text string) (string, bool) {
	if strings.ContainsAny(text, " \t<>*{}$") {
		return "", false
	}
	p := strings.TrimPrefix(text, "./")
	if i := strings.IndexByte(p, ':'); i >= 0 {
		p = p[:i]
	}
	p = strings.TrimSuffix(strings.TrimSuffix(p, "/..."), "/")
	for _, ext := range []string{".go", ".md", ".sh", ".json"} {
		if len(p) > len(ext) && strings.HasSuffix(p, ext) {
			return p, true
		}
	}
	for _, dir := range []string{"internal/", "cmd/", "examples/", "benchmark/", "results/"} {
		if strings.HasPrefix(p, dir) {
			return p, true
		}
	}
	return "", false
}

// seriesSet is what the /metrics exposition can write: the registry
// names non-test Go passes to Counter, Gauge or Histogram as a string
// literal, with dots written as underscores; the literal prefixes of
// names built by concatenation; and the first segment of each, the
// namespaces a documented series is recognised by.
type seriesSet struct {
	exact, histograms, namespaces map[string]bool
	prefixes                      []string
}

// histogramSuffixes are what a histogram's series append to its name
// (see obs.MetricsSnapshot.WritePrometheus); the bare name is its
// family.
var histogramSuffixes = []string{"", "_bucket", "_sum", "_count", "_p50", "_p95", "_p99"}

// snakeCase matches a token that may be a Prometheus series.
var snakeCase = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)+$`)

// named reports whether a code span names a Prometheus series, and
// which: a snake_case token whose first segment is a registered
// namespace. A span with {, } or * is a template and is skipped; of a
// slash-joined span such as plane_fence_gather_ns_p50/p95/p99 the
// first part is the series.
func (s seriesSet) named(text string) (string, bool) {
	if strings.ContainsAny(text, "{}*") {
		return "", false
	}
	name, _, _ := strings.Cut(text, "/")
	if !snakeCase.MatchString(name) {
		return "", false
	}
	ns, _, _ := strings.Cut(name, "_")
	return name, s.namespaces[ns]
}

// has reports whether the exposition can write the series name.
func (s seriesSet) has(name string) bool {
	if s.exact[name] {
		return true
	}
	for _, suffix := range histogramSuffixes {
		if s.histograms[strings.TrimSuffix(name, suffix)] {
			return true
		}
	}
	for _, p := range s.prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// metricSeries parses every non-test Go file of the module for metric
// registrations.
func metricSeries(t *testing.T) seriesSet {
	t.Helper()
	s := seriesSet{exact: map[string]bool{}, histograms: map[string]bool{}, namespaces: map[string]bool{}}
	prom := strings.NewReplacer(".", "_")
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		eachCall(t, path, func(method string, args []ast.Expr) {
			if method != "Counter" && method != "Gauge" && method != "Histogram" || len(args) == 0 {
				return
			}
			arg, concatenated := args[0], false
			for {
				bin, ok := arg.(*ast.BinaryExpr)
				if !ok || bin.Op != token.ADD {
					break
				}
				arg, concatenated = bin.X, true
			}
			lit, ok := stringArg([]ast.Expr{arg}, 0)
			if !ok || lit == "" {
				return
			}
			name := prom.Replace(lit)
			switch {
			case concatenated:
				s.prefixes = append(s.prefixes, name)
			case method == "Histogram":
				s.histograms[name] = true
			default:
				s.exact[name] = true
			}
			ns, _, _ := strings.Cut(name, "_")
			s.namespaces[ns] = true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// pathSet is every file and directory of the tree, slash-separated and
// relative to the module root.
type pathSet map[string]bool

// has reports whether p is a path of the tree, or — for a name written
// relative to its package, like sweep.go or obs/debug.go — the tail of
// one.
func (s pathSet) has(p string) bool {
	if s[p] {
		return true
	}
	for q := range s {
		if strings.HasSuffix(q, "/"+p) {
			return true
		}
	}
	return false
}

// treePaths walks the module, skipping .git and what building and
// benchmarking leave behind.
func treePaths(t *testing.T) pathSet {
	t.Helper()
	s := pathSet{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == "." {
			return err
		}
		path = filepath.ToSlash(path)
		if d.IsDir() && (path == ".git" || path == ".bench_build" || path == "benchmark/out") {
			return filepath.SkipDir
		}
		s[path] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// qualifiedName matches pkg.Ident, capturing both parts.
const qualifiedName = `([a-z][a-z0-9]*)\.([A-Za-z_]\w*)`

// moduleNames parses every Go file of this module. decls holds the
// top-level declarations — functions, types, variables and constants,
// test files included — of every importable package, keyed by the name
// the documents qualify it with: dismastd for the root, obscluster for
// internal/obs/cluster, the directory's name otherwise. spelled holds
// the leading pkg.Ident of every string literal, main packages
// included.
func moduleNames(t *testing.T) (decls map[string]map[string]bool, spelled map[string]bool) {
	t.Helper()
	decls, spelled = map[string]map[string]bool{}, map[string]bool{}
	leading := regexp.MustCompile(`^` + qualifiedName)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		pkgs, err := parser.ParseDir(fset, dir, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for name, pkg := range pkgs {
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if v, err := strconv.Unquote(lit.Value); err == nil {
							if m := leading.FindString(v); m != "" {
								spelled[m] = true
							}
						}
					}
					return true
				})
			}
			if name == "main" || strings.HasSuffix(name, "_test") {
				continue
			}
			key := filepath.Base(dir)
			switch filepath.ToSlash(dir) {
			case ".":
				key = "dismastd"
			case "internal/obs/cluster":
				key = "obscluster"
			}
			if decls[key] != nil {
				t.Fatalf("two packages are qualified as %s", key)
			}
			names := map[string]bool{}
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					switch decl := decl.(type) {
					case *ast.FuncDecl:
						if decl.Recv == nil {
							names[decl.Name.Name] = true
						}
					case *ast.GenDecl:
						for _, spec := range decl.Specs {
							switch spec := spec.(type) {
							case *ast.TypeSpec:
								names[spec.Name.Name] = true
							case *ast.ValueSpec:
								for _, n := range spec.Names {
									names[n.Name] = true
								}
							}
						}
					}
				}
			}
			decls[key] = names
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls, spelled
}

// eachCall parses one Go file and calls fn for every call of a method
// or package function (x.Method(args)).
func eachCall(t *testing.T, path string, fn func(method string, args []ast.Expr)) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				fn(sel.Sel.Name, call.Args)
			}
		}
		return true
	})
}

// stringArg returns args[i] when it is a string literal.
func stringArg(args []ast.Expr, i int) (string, bool) {
	if i >= len(args) {
		return "", false
	}
	lit, ok := args[i].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

type codeSpan struct {
	text string
	line int
}

// codeSpans returns a markdown file's inline code spans, outside fenced
// blocks, with the line each starts on.
func codeSpans(t *testing.T, path string) []codeSpan {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	span := regexp.MustCompile("`([^`]+)`")
	var out []codeSpan
	fenced := false
	for i, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		for _, m := range span.FindAllStringSubmatch(line, -1) {
			out = append(out, codeSpan{text: strings.TrimSpace(m[1]), line: i + 1})
		}
	}
	return out
}
