package dismastd

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDocsNameOnlyWhatShips holds the prose to the binaries: every
// standalone backticked `-flag` in the user-facing documents must be
// registered by some cmd/*/main.go (as fs.String("name", …) and the
// other typed variants), and every backticked `/metrics` or
// `/debug/...` path must be served by a pattern cmd/worker registers on
// a mux. Both sides are read with go/parser, so renaming or deleting a
// flag or an endpoint without its documentation fails here.
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

	flagSpan := regexp.MustCompile(`^-([a-z][a-z0-9-]*)(=|\s|$)`)
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
		}
	}
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
