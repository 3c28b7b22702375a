package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The committed evaluation is one run of the committed command line,
//
//	go run ./cmd/dismastd-bench -exp all -svgdir results/figures
//
// at the defaults: results/full_run.txt is its stdout and
// results/figures/ its charts. These tests hold the file, the charts
// and EXPERIMENTS.md to the code. Only the deterministic columns are
// compared — sizes, iteration counts, partition CVs, sim/iter, bytes,
// fits — which depend neither on the host nor on -threads
// (TestFigureColumnsIgnoreThreads in internal/bench); the wall-clock
// columns (wall/iter, round, speedup, and every phase timing of the
// phase breakdown) are exempt.

const (
	fullRunPath = "../../results/full_run.txt"
	figuresDir  = "../../results/figures"
)

// wallHeaders name the columns that hold wall-clock time.
var wallHeaders = map[string]bool{"wall/iter": true, "round": true, "speedup": true}

// runBlock is one "== title ==" section of a run's output: the title
// and its non-blank lines, each with the line number it was read from.
type runBlock struct {
	title string
	lines []runLine
}

type runLine struct {
	text string
	no   int
}

// parseRun splits a run's output into its titled blocks.
func parseRun(text string) []runBlock {
	var blocks []runBlock
	for i, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "== "):
			blocks = append(blocks, runBlock{title: line})
		case strings.TrimSpace(line) != "" && len(blocks) > 0:
			b := &blocks[len(blocks)-1]
			b.lines = append(b.lines, runLine{line, i + 1})
		}
	}
	return blocks
}

// deterministic returns each line's fields with the wall-clock ones
// blanked. A line whose first field is Dataset, sweep or rank is a
// header and names the columns of the rows under it; in the phase
// breakdown (header "rank") every column but rank and bytes_sent is a
// wall time. A caption — a line ending in ':' — ends the rows of the
// header above it, and is kept whole.
func deterministic(lines []runLine) [][]string {
	var header []string
	out := make([][]string, len(lines))
	for i, l := range lines {
		fields := strings.Fields(l.text)
		out[i] = fields
		if strings.HasSuffix(l.text, ":") {
			header = nil
			continue
		}
		switch fields[0] {
		case "Dataset", "sweep", "rank":
			header = fields
			continue
		}
		if header == nil {
			continue
		}
		masked := slices.Clone(fields)
		for c := range masked {
			if c >= len(header) {
				break
			}
			h := header[c]
			if wallHeaders[h] || header[0] == "rank" && h != "rank" && h != "bytes_sent" {
				masked[c] = "*"
			}
		}
		out[i] = masked
	}
	return out
}

// compareBlock requires got's lines to be want's, deterministic columns
// alike, in order. With subset set, got may leave lines of want out.
func compareBlock(t *testing.T, where string, want, got runBlock, subset bool) {
	t.Helper()
	w, g := deterministic(want.lines), deterministic(got.lines)
	j := 0
	for i, cells := range g {
		for j < len(w) && subset && !slices.Equal(w[j], cells) {
			j++
		}
		if j == len(w) || !slices.Equal(w[j], cells) {
			t.Errorf("%s:%d: %q (deterministic columns %q) is not a row of %s %q",
				where, got.lines[i].no, got.lines[i].text, cells, fullRunPath, want.title)
			return
		}
		j++
	}
	if !subset && j != len(w) {
		t.Errorf("%s: %q ends after %d of the committed block's %d lines", where, got.title, j, len(w))
	}
}

// committedBlocks reads results/full_run.txt, keyed by title.
func committedBlocks(t *testing.T) map[string]runBlock {
	t.Helper()
	data, err := os.ReadFile(fullRunPath)
	if err != nil {
		t.Fatal(err)
	}
	byTitle := map[string]runBlock{}
	for _, b := range parseRun(string(data)) {
		if _, dup := byTitle[b.title]; dup {
			t.Errorf("%s holds block %q twice", fullRunPath, b.title)
			continue
		}
		byTitle[b.title] = b
	}
	return byTitle
}

// checkAgainstCommitted requires every block of a fresh run to be the
// committed block of the same title, and returns the fresh blocks.
func checkAgainstCommitted(t *testing.T, committed map[string]runBlock, stdout string) []runBlock {
	t.Helper()
	fresh := parseRun(stdout)
	if len(fresh) == 0 {
		t.Fatalf("the run printed no block:\n%s", stdout)
	}
	for _, b := range fresh {
		want, ok := committed[b.title]
		if !ok {
			t.Errorf("%s has no block %q", fullRunPath, b.title)
			continue
		}
		compareBlock(t, "fresh run", want, b, false)
	}
	return fresh
}

// TestExperimentsQuoteTheCommittedRun: every fenced block of
// EXPERIMENTS.md that opens with a "== title ==" line quotes the
// committed block of that title — a header and a subset of its rows,
// in order, equal in every deterministic column.
func TestExperimentsQuoteTheCommittedRun(t *testing.T) {
	committed := committedBlocks(t)
	data, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	quoted := 0
	var fence []string
	fenceStart := 0
	for i, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "```") {
			if fence != nil {
				fence = append(fence, line)
			}
			continue
		}
		if fence == nil {
			fence, fenceStart = []string{}, i+1
			continue
		}
		text := strings.Join(fence, "\n")
		fence = nil
		if !strings.HasPrefix(text, "== ") {
			continue
		}
		for _, b := range parseRun(text) {
			for k := range b.lines {
				b.lines[k].no += fenceStart
			}
			want, ok := committed[b.title]
			if !ok {
				t.Errorf("EXPERIMENTS.md:%d: %q is no block of %s", fenceStart+1, b.title, fullRunPath)
				continue
			}
			compareBlock(t, "EXPERIMENTS.md", want, b, true)
			quoted++
		}
	}
	if quoted < 7 {
		t.Fatalf("EXPERIMENTS.md quotes %d blocks of %s; every Section V table and both checks should be one", quoted, fullRunPath)
	}
}

// TestCommittedRunIsTheCode reruns the blocks of the committed command
// line that take about a second or less — Table III, Table IV and
// Fig. 7 — and requires the committed file to hold them, and Fig. 7's
// chart byte for byte. `make results` reruns the whole line.
func TestCommittedRunIsTheCode(t *testing.T) {
	committed := committedBlocks(t)
	for _, exp := range []string{"table3", "table4", "fig7"} {
		t.Run(exp, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			var stdout, stderr bytes.Buffer
			if err := run([]string{"-exp", exp, "-svgdir", dir}, &stdout, &stderr); err != nil {
				t.Fatal(err)
			}
			checkAgainstCommitted(t, committed, stdout.String())
			charts, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range charts {
				compareChart(t, filepath.Join(dir, c.Name()))
			}
		})
	}
}

// compareChart requires a freshly rendered chart to be the committed
// one byte for byte.
func compareChart(t *testing.T, fresh string) {
	t.Helper()
	got, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(figuresDir, filepath.Base(fresh)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the committed %s", fresh, filepath.Join(figuresDir, filepath.Base(fresh)))
	}
}

func TestDeterministicColumns(t *testing.T) {
	lines := []runLine{
		{"Dataset     nodes    iters      wall/iter       sim/iter", 1},
		{"Clothing        3       10        3.541ms         5.256s", 2},
		{"Clothing (final step, 10 iters):", 3},
		{"  rank    allreduce      compile   bytes_sent", 4},
		{"     0     29.671ms        378µs       381124", 5},
		{"   p50        900µs        477µs", 6},
	}
	got := deterministic(lines)
	want := [][]string{
		{"Dataset", "nodes", "iters", "wall/iter", "sim/iter"},
		{"Clothing", "3", "10", "*", "5.256s"},
		{"Clothing", "(final", "step,", "10", "iters):"},
		{"rank", "allreduce", "compile", "bytes_sent"},
		{"0", "*", "*", "381124"},
		{"p50", "*", "*"},
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("line %d: %q, want %q", i, got[i], want[i])
		}
	}
}
