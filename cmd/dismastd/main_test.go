package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dismastd"
)

// writeSnapshots produces two nested snapshot files in dir.
func writeSnapshots(t *testing.T, dir string) (string, string) {
	t.Helper()
	full := dismastd.GenerateDataset(dismastd.DatasetNetflix, 3000, 5)
	seq, err := dismastd.GrowthSchedule(full, []float64{0.8, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 2)
	for i := 0; i < 2; i++ {
		paths[i] = filepath.Join(dir, []string{"a.tsv", "b.bin"}[i])
		f, err := os.Create(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			err = dismastd.WriteTensorText(f, seq.Snapshot(i))
		} else {
			err = dismastd.WriteTensorBinary(f, seq.Snapshot(i))
		}
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	return paths[0], paths[1]
}

func TestStreamingRun(t *testing.T) {
	dir := t.TempDir()
	a, b := writeSnapshots(t, dir)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-rank", "3", "-iters", "4", "-workers", "3", "-method", "mtp", a, b}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	if !strings.Contains(out, "snapshot 0") || !strings.Contains(out, "snapshot 1") {
		t.Fatalf("missing snapshot lines:\n%s", out)
	}
	if !strings.Contains(out, "traffic=") {
		t.Fatalf("distributed run reported no traffic:\n%s", out)
	}
	if !strings.Contains(out, "final factors:") {
		t.Fatalf("missing factor summary:\n%s", out)
	}
}

// TestLossesIndependentOfGOMAXPROCS: each in-process worker computes on
// max(1, GOMAXPROCS/workers) threads, and a run's numbers do not depend
// on that count: at -workers 2 the printed losses and the checkpointed
// state agree at GOMAXPROCS 1 (one thread per worker) and 4 (two).
func TestLossesIndependentOfGOMAXPROCS(t *testing.T) {
	dir := t.TempDir()
	a, b := writeSnapshots(t, dir)
	decompose := func(procs int) ([]string, []byte) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		state := filepath.Join(dir, "state.gob")
		var stdout, stderr bytes.Buffer
		if err := run([]string{"-rank", "3", "-iters", "4", "-workers", "2", "-method", "mtp", "-checkpoint", state, a, b}, &stdout, &stderr); err != nil {
			t.Fatal(err)
		}
		st, err := os.ReadFile(state)
		if err != nil {
			t.Fatal(err)
		}
		return regexp.MustCompile(`loss=\S+`).FindAllString(stdout.String(), -1), st
	}
	oneLoss, oneState := decompose(1)
	fourLoss, fourState := decompose(4)
	if len(oneLoss) != 2 || !slices.Equal(oneLoss, fourLoss) {
		t.Fatalf("losses at GOMAXPROCS 1: %v, at 4: %v", oneLoss, fourLoss)
	}
	if !bytes.Equal(oneState, fourState) {
		t.Fatal("checkpointed state differs between GOMAXPROCS 1 and 4")
	}
}

func TestCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	a, b := writeSnapshots(t, dir)
	state := filepath.Join(dir, "state.gob")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-rank", "3", "-iters", "3", "-checkpoint", state, a}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(state); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	stdout.Reset()
	if err := run([]string{"-rank", "3", "-iters", "3", "-resume", state, b}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "snapshot 1") {
		t.Fatalf("resumed run did not continue numbering:\n%s", stdout.String())
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	a, _ := writeSnapshots(t, dir)
	var stdout, stderr bytes.Buffer
	for name, args := range map[string][]string{
		"no files":     {"-rank", "2"},
		"bad method":   {"-method", "xyz", a},
		"missing file": {filepath.Join(dir, "nope.tsv")},
		"bad resume":   {"-resume", filepath.Join(dir, "nope.gob"), a},
	} {
		if err := run(args, &stdout, &stderr); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}
