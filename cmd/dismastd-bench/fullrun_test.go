//go:build results

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestFullRunIsTheCode reruns the whole committed command line into a
// temporary directory — about 20 s on two cores, so plain `go test`
// leaves it out and `make results` runs it — and requires every block
// of results/full_run.txt in its deterministic columns, and every chart
// of results/figures/ byte for byte.
func TestFullRunIsTheCode(t *testing.T) {
	committed := committedBlocks(t)
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-exp", "all", "-svgdir", dir}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if fresh := checkAgainstCommitted(t, committed, stdout.String()); len(fresh) != len(committed) {
		t.Errorf("the run printed %d blocks, %s holds %d", len(fresh), fullRunPath, len(committed))
	}
	fresh, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	kept, err := os.ReadDir(figuresDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != len(kept) {
		t.Errorf("the run rendered %d charts, %s holds %d", len(fresh), figuresDir, len(kept))
	}
	for _, c := range fresh {
		compareChart(t, filepath.Join(dir, c.Name()))
	}
}
