package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dismastd"
	"dismastd/internal/cluster"
	"dismastd/internal/core"
	"dismastd/internal/dtd"
	"dismastd/internal/mat"
	"dismastd/internal/obs"
	obscluster "dismastd/internal/obs/cluster"
)

// TestTwoStepTCPCluster drives the full worker flow in-process: a
// rendezvous plus three worker runs over real TCP loopback, first
// bootstrapping from scratch, then an incremental step resuming from
// the written state file.
func TestTwoStepTCPCluster(t *testing.T) {
	dir := t.TempDir()
	full := dismastd.GenerateDataset(dismastd.DatasetBook, 2500, 9)
	seq, err := dismastd.GrowthSchedule(full, []float64{0.85, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	snaps := make([]string, 2)
	for i := range snaps {
		snaps[i] = filepath.Join(dir, "snap"+string(rune('0'+i))+".bin")
		f, err := os.Create(snaps[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := dismastd.WriteTensorBinary(f, seq.Snapshot(i)); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	state := filepath.Join(dir, "state.gob")

	const workers = 3
	for step := 0; step < 2; step++ {
		rv, err := cluster.NewRendezvous("127.0.0.1:0", workers)
		if err != nil {
			t.Skipf("loopback networking unavailable: %v", err)
		}
		var wg sync.WaitGroup
		outs := make([]bytes.Buffer, workers)
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				args := []string{
					"-join", rv.Addr(), "-tensor", snaps[step],
					"-rank", "3", "-iters", "3", "-seed", "5",
					"-out", state, "-timeout", "30s",
				}
				if step > 0 {
					args = append(args, "-prev", state)
				}
				var stderr bytes.Buffer
				errs[w] = run(args, &outs[w], &stderr)
			}(w)
		}
		wg.Wait()
		rv.Close()
		combined := ""
		for w := 0; w < workers; w++ {
			if errs[w] != nil {
				t.Fatalf("step %d worker %d: %v", step, w, errs[w])
			}
			combined += outs[w].String()
		}
		if !strings.Contains(combined, "rank 0: iters=3") {
			t.Fatalf("step %d: no rank-0 summary in %q", step, combined)
		}
		if _, err := os.Stat(state); err != nil {
			t.Fatalf("step %d: state not written: %v", step, err)
		}
	}
}

func TestWorkerArgErrors(t *testing.T) {
	dir := t.TempDir()
	snap := writeSnapshots(t, dir)[0]
	var stdout, stderr bytes.Buffer
	// What a rejection must name, where the refusal is about that flag
	// or file rather than about loading x.tsv.
	mentions := map[string]string{
		"elastic without heartbeat":            "-heartbeat",
		"no workers in process":                "-workers",
		"no workers to rendezvous":             "-workers",
		"missing snapshot":                     "nope.tsv",
		"missing prev":                         "prev state",
		"unknown script verb":                  `-script: entry "pause:1:1": unknown verb`,
		"malformed script entry":               `-script: entry "kill:1" is not verb:rank:step`,
		"two kills at one step":                `-script: entries "kill:1:1" and "kill:2:1"`,
		"join without elastic":                 `-script entry "join:3:1" requires -elastic`,
		"drain without elastic":                `-script entry "drain:1:1" requires -elastic`,
		"join in process without elastic":      `-script entry "join:2:1" requires -elastic`,
		"drain in process without elastic":     `-script entry "drain:1:1" requires -elastic`,
		"rebalance without elastic":            "-rebalance-on-imbalance requires -elastic",
		"rebalance in process without elastic": "-rebalance-on-imbalance requires -elastic",
		"bogus solver":                         "bogus",
	}
	for name, args := range map[string][]string{
		"neither mode":                         {},
		"no workers to rendezvous":             {"-serve", "127.0.0.1:0", "-workers", "0"},
		"join without file":                    {"-join", "127.0.0.1:1"},
		"bad method":                           {"-join", "127.0.0.1:1", "-tensor", "x.tsv", "-method", "zzz"},
		"resume without checkpoint":            {"-join", "127.0.0.1:1", "-tensor", "x.tsv", "-resume"},
		"rebalance without elastic":            {"-join", "127.0.0.1:1", "-tensor", "x.tsv", "-rebalance-on-imbalance"},
		"unknown script verb":                  {"-join", "127.0.0.1:1", "-tensor", "x.tsv", "-script", "pause:1:1"},
		"malformed script entry":               {"-join", "127.0.0.1:1", "-tensor", "x.tsv", "-script", "kill:1"},
		"two kills at one step":                {"-join", "127.0.0.1:1", "-tensor", "x.tsv", "-script", "kill:1:1,kill:2:1"},
		"join without elastic":                 {"-join", "127.0.0.1:1", "-tensor", "x.tsv", "-script", "join:3:1"},
		"drain without elastic":                {"-join", "127.0.0.1:1", "-tensor", "x.tsv", "-script", "drain:1:1"},
		"join in process without elastic":      {"-tensor", "x.tsv", "-script", "join:2:1"},
		"drain in process without elastic":     {"-tensor", "x.tsv", "-script", "drain:1:1"},
		"rebalance in process without elastic": {"-tensor", "x.tsv", "-rebalance-on-imbalance"},
		"bogus solver":                         {"-tensor", "x.tsv", "-solver", "bogus"},
		"elastic without heartbeat":            {"-join", "127.0.0.1:1", "-tensor", "x.tsv", "-elastic"},
		"no workers in process":                {"-tensor", "x.tsv", "-workers", "0"},
		"missing snapshot":                     {"-tensor", filepath.Join(dir, "nope.tsv")},
		"missing prev":                         {"-tensor", snap, "-prev", filepath.Join(dir, "nope.gob")},
	} {
		err := run(args, &stdout, &stderr)
		if err == nil {
			t.Fatalf("%s accepted", name)
		}
		if want := mentions[name]; !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error %q does not name %s", name, err, want)
		}
	}
	// Without -join the ranks run in this process, so the transport
	// settings of a TCP node are refused by name; every policy and
	// script runs in process.
	for _, flagArgs := range [][]string{
		{"-listen", "127.0.0.1:0"},
		{"-heartbeat", "150ms"},
		{"-debug-addr", "127.0.0.1:0"},
	} {
		err := run(append([]string{"-tensor", "x.tsv"}, flagArgs...), &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), flagArgs[0]+" ") {
			t.Fatalf("%v without -join: error %v, want one naming %s", flagArgs, err, flagArgs[0])
		}
	}
}

// runLocal runs worker mode on the in-process cluster at the given
// GOMAXPROCS and returns its stdout and error.
func runLocal(t *testing.T, procs int, args ...string) (string, error) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	return stdout.String(), err
}

// TestInProcessClusterMatchesTCP: without -join, worker mode runs the
// same driver on an in-process cluster of -workers ranks. A three-step
// stream on three ranks writes the -out of a three-process TCP cluster
// byte for byte and prints the same rank-0 lines, at GOMAXPROCS 1 (one
// thread per rank) and 4 alike.
func TestInProcessClusterMatchesTCP(t *testing.T) {
	dir := t.TempDir()
	snaps := writeSchedule(t, dir, []float64{0.7, 0.85, 1.0})
	base := []string{
		"-tensor", strings.Join(snaps, ","),
		"-rank", "3", "-iters", "3", "-seed", "5", "-timeout", "30s",
	}
	tcpOut := filepath.Join(dir, "tcp.gob")
	errs, tcpStdout := runCluster(t, append([]string{"-out", tcpOut}, base...), [][]string{nil, nil, nil})
	for w, err := range errs {
		if err != nil {
			t.Fatalf("TCP worker %d: %v", w, err)
		}
	}
	want, err := os.ReadFile(tcpOut)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(tcpStdout, "rank 0: iters="); n != len(snaps) {
		t.Fatalf("TCP cluster printed %d step lines: %q", n, tcpStdout)
	}
	for _, procs := range []int{1, 4} {
		out := filepath.Join(dir, fmt.Sprintf("local%d.gob", procs))
		stdout, err := runLocal(t, procs, append([]string{"-workers", "3", "-out", out}, base...)...)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		if stdout != tcpStdout {
			t.Fatalf("GOMAXPROCS %d: in-process lines\n%s\nTCP lines\n%s", procs, stdout, tcpStdout)
		}
		if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("GOMAXPROCS %d: in-process -out differs from the TCP cluster's (err %v)", procs, err)
		}
	}
}

// TestInProcessKillAndResume: on the in-process cluster a scripted kill
// of rank 1 mid-step 1 fails the run after step 0's checkpoint, and a
// -resume rerun writes the uninterrupted run's -out byte for byte.
func TestInProcessKillAndResume(t *testing.T) {
	dir := t.TempDir()
	snaps := writeSnapshots(t, dir)
	ckpt := filepath.Join(dir, "ckpt")
	base := []string{
		"-tensor", strings.Join(snaps, ","), "-workers", "3",
		"-rank", "3", "-iters", "3", "-seed", "5", "-timeout", "30s",
	}
	stdout, err := runLocal(t, 2, append([]string{"-checkpoint", ckpt, "-script", "kill:1:1"}, base...)...)
	if err == nil || !strings.Contains(err.Error(), "scripted crash") && !errors.Is(err, cluster.ErrClosed) {
		t.Fatalf("killed run returned %v, want the crash or a closed cluster", err)
	}
	if n := strings.Count(stdout, "rank 0: iters="); n != 1 {
		t.Fatalf("%d steps completed, want only step 0: %q", n, stdout)
	}
	if _, err := os.Stat(checkpointPath(ckpt, 1)); err == nil {
		t.Fatal("step-1 checkpoint written despite the kill")
	}
	resumed, whole := filepath.Join(dir, "resumed.gob"), filepath.Join(dir, "whole.gob")
	if _, err := runLocal(t, 2, append([]string{"-checkpoint", ckpt, "-resume", "-out", resumed}, base...)...); err != nil {
		t.Fatal(err)
	}
	if _, err := runLocal(t, 2, append([]string{"-out", whole}, base...)...); err != nil {
		t.Fatal(err)
	}
	got, err1 := os.ReadFile(resumed)
	want, err2 := os.ReadFile(whole)
	if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
		t.Fatalf("resumed -out differs from the uninterrupted run's (%v, %v)", err1, err2)
	}
}

// TestOneSnapshotIsStaticDecomposition: one snapshot on one in-process
// rank is the static CP-ALS decomposition dismastd.Stream's first
// Ingest computes, bit for bit.
func TestOneSnapshotIsStaticDecomposition(t *testing.T) {
	dir := t.TempDir()
	snaps := writeSnapshots(t, dir)
	out := filepath.Join(dir, "out.gob")
	if _, err := runLocal(t, 2, "-tensor", snaps[0], "-rank", "3", "-iters", "4", "-seed", "5", "-out", out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	x, err := dismastd.ReadTensor(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	s := dismastd.NewStream(dismastd.Options{Rank: 3, MaxIters: 4, Seed: 5})
	if _, err := s.Ingest(x); err != nil {
		t.Fatal(err)
	}
	got := readState(t, out)
	for m, want := range s.Factors() {
		if d := mat.MaxAbsDiff(got.Factors[m], want); d != 0 {
			t.Fatalf("mode %d differs from Stream.Ingest by %g", m, d)
		}
	}
}

// TestStateWritersKeepPreviousFileOnFailure: when the encoder fails,
// -out and a step checkpoint keep their previous bytes exactly, and no
// temp file is left beside them.
func TestStateWritersKeepPreviousFileOnFailure(t *testing.T) {
	dir := t.TempDir()
	bad := &dtd.State{Dims: []int{3}} // a dim without its factor: WriteState refuses it
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	out, prefix := filepath.Join(dir, "out.gob"), filepath.Join(dir, "ckpt")
	for path, write := range map[string]func() error{
		out:                       func() error { return writeOut(log, out, bad) },
		checkpointPath(prefix, 2): func() error { return writeCheckpoint(prefix, 2, bad) },
	} {
		previous := []byte("the previous state")
		if err := os.WriteFile(path, previous, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := write(); err == nil {
			t.Fatalf("%s: an unencodable state was written", path)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, previous) {
			t.Fatalf("%s: after a failed write it holds %q (%v), want the previous %q", path, got, err, previous)
		}
		if _, err := os.Stat(path + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%s: temp file left behind (%v)", path, err)
		}
	}
}

// writeSnapshots materialises a two-step growth schedule as binary
// snapshot files and returns their paths.
func writeSnapshots(t *testing.T, dir string) []string {
	t.Helper()
	return writeSchedule(t, dir, []float64{0.85, 1.0})
}

// writeSchedule materialises one snapshot file per growth fraction.
func writeSchedule(t *testing.T, dir string, fracs []float64) []string {
	t.Helper()
	full := dismastd.GenerateDataset(dismastd.DatasetBook, 2000, 17)
	seq, err := dismastd.GrowthSchedule(full, fracs)
	if err != nil {
		t.Fatal(err)
	}
	snaps := make([]string, len(fracs))
	for i := range snaps {
		snaps[i] = filepath.Join(dir, "snap"+string(rune('0'+i))+".bin")
		f, err := os.Create(snaps[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := dismastd.WriteTensorBinary(f, seq.Snapshot(i)); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return snaps
}

// writeGrownBook writes one Book-like tensor per entry of nnz into dir
// as a binary snapshot: a larger nnz at the same seed is the smaller
// tensor grown in every mode, as `datagen -nnz` gives it.
func writeGrownBook(t *testing.T, dir string, nnz ...int) []string {
	t.Helper()
	snaps := make([]string, len(nnz))
	for i, n := range nnz {
		snaps[i] = filepath.Join(dir, fmt.Sprintf("book%d.bin", n))
		f, err := os.Create(snaps[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := dismastd.WriteTensorBinary(f, dismastd.GenerateDataset(dismastd.DatasetBook, n, 17)); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return snaps
}

// runCluster starts a rendezvous plus one worker goroutine per entry in
// extra (appended to the shared base args) and returns each worker's
// error and combined output.
func runCluster(t *testing.T, base []string, extra [][]string) ([]error, string) {
	t.Helper()
	workers := len(extra)
	rv, err := cluster.NewRendezvous("127.0.0.1:0", workers)
	if err != nil {
		t.Skipf("loopback networking unavailable: %v", err)
	}
	defer rv.Close()
	var wg sync.WaitGroup
	outs := make([]bytes.Buffer, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			args := append([]string{"-join", rv.Addr()}, base...)
			args = append(args, extra[w]...)
			var stderr bytes.Buffer
			errs[w] = run(args, &outs[w], &stderr)
		}(w)
	}
	wg.Wait()
	combined := ""
	for w := 0; w < workers; w++ {
		combined += outs[w].String()
	}
	return errs, combined
}

// TestKillAndResume exercises the crash-recovery path end to end under
// the default failure policy: one rank is chaos-killed in the middle of
// the second streaming step, the survivors surface a typed peer-down
// failure instead of absorbing it, and a resumed cluster picks up from
// the step-0 checkpoint and reproduces the uninterrupted run's factors
// exactly.
func TestKillAndResume(t *testing.T) {
	dir := t.TempDir()
	snaps := writeSnapshots(t, dir)
	ckpt := filepath.Join(dir, "ckpt")
	stateB := filepath.Join(dir, "stateB.gob")
	stateC := filepath.Join(dir, "stateC.gob")
	base := []string{
		"-tensor", snaps[0] + "," + snaps[1],
		"-rank", "3", "-iters", "3", "-seed", "5", "-timeout", "30s",
	}

	// Run A: node rank 1 dies mid-step 1. Step 0 completed and was
	// checkpointed first, so the survivors fail inside step 1's
	// collectives. Ranks follow rendezvous arrival order, so the victim
	// is an arbitrary goroutine: exactly one scripted crash, every other
	// worker a typed peer-down.
	errsA, outA := runCluster(t,
		append([]string{"-checkpoint", ckpt, "-heartbeat", "150ms", "-script", "kill:1:1"}, base...),
		[][]string{nil, nil, nil})
	crashes := 0
	for w, err := range errsA {
		if err != nil && strings.Contains(err.Error(), "scripted crash") {
			crashes++
			continue
		}
		pd, ok := cluster.AsPeerDown(err)
		if !ok {
			t.Fatalf("survivor %d error = %v, want ErrPeerDown", w, err)
		}
		if pd.Rank < 0 || pd.Rank > 2 {
			t.Fatalf("survivor %d blamed rank %d", w, pd.Rank)
		}
	}
	if crashes != 1 {
		t.Fatalf("%d scripted crashes, want exactly 1: %v", crashes, errsA)
	}
	if n := strings.Count(outA, "rank 0: iters="); n != 1 {
		t.Fatalf("%d steps completed, want only step 0: %q", n, outA)
	}
	if _, err := os.Stat(ckpt + ".step0.gob"); err != nil {
		t.Fatalf("step-0 checkpoint missing: %v", err)
	}
	if _, err := os.Stat(ckpt + ".step1.gob"); err == nil {
		t.Fatal("step-1 checkpoint written despite the kill")
	}

	// Run B: a fresh cluster resumes from the checkpoint and finishes
	// only the remaining step.
	errsB, _ := runCluster(t,
		append([]string{"-checkpoint", ckpt, "-resume", "-out", stateB}, base...),
		[][]string{nil, nil, nil})
	for w, err := range errsB {
		if err != nil {
			t.Fatalf("resume worker %d: %v", w, err)
		}
	}

	// Run C: the uninterrupted reference over both steps.
	errsC, _ := runCluster(t,
		append([]string{"-out", stateC}, base...),
		[][]string{nil, nil, nil})
	for w, err := range errsC {
		if err != nil {
			t.Fatalf("reference worker %d: %v", w, err)
		}
	}

	b := readState(t, stateB)
	c := readState(t, stateC)
	if len(b.Factors) != len(c.Factors) {
		t.Fatalf("factor counts differ: %d vs %d", len(b.Factors), len(c.Factors))
	}
	for m := range b.Factors {
		if d := mat.MaxAbsDiff(b.Factors[m], c.Factors[m]); d != 0 {
			t.Fatalf("mode %d: resumed factors diverge from reference by %g", m, d)
		}
	}
}

// TestOneDriverBothPolicies: with no membership event the two failure
// policies are the same run. A three-snapshot stream with -checkpoint
// writes the same -out bytes and the same checkpoint for every step —
// the last one included — with and without -elastic, prints one rank-0
// summary line per step, and resuming the finished run recomputes
// nothing.
func TestOneDriverBothPolicies(t *testing.T) {
	dir := t.TempDir()
	snaps := writeSchedule(t, dir, []float64{0.7, 0.85, 1.0})
	base := []string{
		"-tensor", strings.Join(snaps, ","),
		"-rank", "3", "-iters", "3", "-seed", "5", "-timeout", "30s",
	}
	files := map[string][][]byte{} // policy -> out, step0, step1, step2
	for _, tc := range []struct {
		name  string
		extra []string
	}{
		{"fail", nil},
		{"absorb", []string{"-elastic", "-heartbeat", "150ms"}},
	} {
		ckpt := filepath.Join(dir, tc.name)
		out := filepath.Join(dir, tc.name+".out.gob")
		args := append(append([]string{"-checkpoint", ckpt, "-out", out}, tc.extra...), base...)
		errs, stdout := runCluster(t, args, [][]string{nil, nil})
		for w, err := range errs {
			if err != nil {
				t.Fatalf("%s worker %d: %v", tc.name, w, err)
			}
		}
		if n := strings.Count(stdout, "rank 0: iters="); n != len(snaps) {
			t.Fatalf("%s: %d rank-0 step lines, want %d: %q", tc.name, n, len(snaps), stdout)
		}
		paths := []string{out}
		for step := range snaps {
			paths = append(paths, checkpointPath(ckpt, step))
		}
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			files[tc.name] = append(files[tc.name], b)
		}
		if !bytes.Equal(files[tc.name][0], files[tc.name][len(snaps)]) {
			t.Fatalf("%s: -out differs from the last step's checkpoint", tc.name)
		}

		// Every step is checkpointed, so a resume has nothing left to run
		// and hands back the last checkpoint.
		again := filepath.Join(dir, tc.name+".again.gob")
		errs, stdout = runCluster(t, append(append([]string{"-checkpoint", ckpt, "-resume", "-out", again}, tc.extra...), base...), [][]string{nil, nil})
		for w, err := range errs {
			if err != nil {
				t.Fatalf("%s resumed worker %d: %v", tc.name, w, err)
			}
		}
		if strings.Contains(stdout, "iters=") {
			t.Fatalf("%s: resuming a finished run recomputed a step: %q", tc.name, stdout)
		}
		if b, err := os.ReadFile(again); err != nil || !bytes.Equal(b, files[tc.name][0]) {
			t.Fatalf("%s: resumed -out differs from the finished run's (err %v)", tc.name, err)
		}
	}
	for i := range files["fail"] {
		if !bytes.Equal(files["fail"][i], files["absorb"][i]) {
			t.Fatalf("file %d (0 = -out, then step checkpoints) differs between the policies", i)
		}
	}
}

// TestResumeFallsBackPastCorruptCheckpoint: -resume must treat a
// damaged checkpoint as lost work, not a fatal error — the latest
// *readable* checkpoint wins, and only genuinely unreadable chains
// start from scratch.
func TestResumeFallsBackPastCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "ckpt")
	for step := 0; step < 2; step++ {
		st := &dtd.State{Dims: []int{2}, Factors: []*mat.Dense{mat.New(2, 2)}}
		st.Factors[0].Data[0] = float64(step + 1)
		if err := writeCheckpoint(prefix, step, st); err != nil {
			t.Fatal(err)
		}
	}
	// Flip one payload byte in the newest checkpoint.
	path := checkpointPath(prefix, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var warned []int
	st, step, err := latestCheckpoint(prefix, 2, func(step int, err error) {
		warned = append(warned, step)
	})
	if err != nil {
		t.Fatal(err)
	}
	if step != 0 || st == nil || st.Factors[0].Data[0] != 1 {
		t.Fatalf("fell back to step %d (state %v), want the intact step 0", step, st)
	}
	if len(warned) != 1 || warned[0] != 1 {
		t.Fatalf("warned about steps %v, want [1]", warned)
	}

	// With every checkpoint damaged the resume starts from scratch.
	if err := os.WriteFile(checkpointPath(prefix, 0), data[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	st, step, err = latestCheckpoint(prefix, 2, nil)
	if err != nil || st != nil || step != -1 {
		t.Fatalf("all-corrupt chain gave (%v, %d, %v), want (nil, -1, nil)", st, step, err)
	}
}

// TestElasticWorkerJoinAndDrain runs the elastic driver across real TCP
// processes: a world of four starts with three members, and at step 1's
// fence spare rank 3 is admitted while member 1 drains out. Every rank
// must exit cleanly and the final view's rank 0 must write the state.
func TestElasticWorkerJoinAndDrain(t *testing.T) {
	dir := t.TempDir()
	snaps := writeSnapshots(t, dir)
	state := filepath.Join(dir, "state.gob")
	base := []string{
		"-tensor", snaps[0] + "," + snaps[1],
		"-rank", "3", "-iters", "3", "-seed", "5", "-timeout", "30s",
		"-elastic", "-heartbeat", "150ms", "-script", "join:3:1,drain:1:1",
		"-out", state,
	}
	errs, out := runCluster(t, base, [][]string{nil, nil, nil, nil})
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if !strings.Contains(out, "final loss=") {
		t.Fatalf("no final summary in %q", out)
	}
	st := readState(t, state)
	if len(st.Dims) == 0 || st.Dims[0] == 0 {
		t.Fatalf("written state has dims %v", st.Dims)
	}
}

// TestElasticWorkerKillRecovers is the distributed chaos test: rank 1
// crashes mid-sweep during the last step, the survivors detect it by
// heartbeat, agree the shrunken view, re-run the step without it, and
// finish the stream — same cluster run, no restart. Their -out must be
// byte-identical to the static runs that switch to two ranks at that
// step: three ranks over snapshot 0, then two from its checkpoint over
// snapshot 1.
func TestElasticWorkerKillRecovers(t *testing.T) {
	dir := t.TempDir()
	snaps := writeSnapshots(t, dir)
	state := filepath.Join(dir, "state.gob")
	opts := []string{"-rank", "3", "-iters", "3", "-seed", "5", "-timeout", "30s"}
	base := append([]string{
		"-tensor", snaps[0] + "," + snaps[1],
		"-elastic", "-script", "kill:1:1", "-heartbeat", "150ms",
		"-out", state,
	}, opts...)
	errs, out := runCluster(t, base, [][]string{nil, nil, nil})
	// Ranks are assigned by rendezvous arrival order, so the victim (node
	// rank 1) is an arbitrary goroutine: exactly one scripted crash, no
	// other failures.
	crashes := 0
	for w, err := range errs {
		if err == nil {
			continue
		}
		if !strings.Contains(err.Error(), "scripted crash") {
			t.Fatalf("worker %d: %v", w, err)
		}
		crashes++
	}
	if crashes != 1 {
		t.Fatalf("%d scripted crashes, want exactly 1: %v", crashes, errs)
	}
	if !strings.Contains(out, "final loss=") {
		t.Fatalf("survivors produced no final summary: %q", out)
	}
	got, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, killReference(t, dir, snaps, opts)) {
		t.Fatal("survivors' -out differs from the 3-rank then 2-rank static runs")
	}
}

// killReference returns the -out of the static TCP runs a kill of rank
// 1 of 3 during step 1 of snaps must reproduce: three ranks over
// snapshot 0, then two from its checkpoint over snapshot 1.
func killReference(t *testing.T, dir string, snaps, opts []string) []byte {
	t.Helper()
	ckpt := filepath.Join(dir, "ref")
	ref := filepath.Join(dir, "ref.gob")
	for _, run := range []struct {
		args    []string
		workers int
	}{
		{[]string{"-tensor", snaps[0], "-checkpoint", ckpt}, 3},
		{[]string{"-tensor", snaps[1], "-prev", checkpointPath(ckpt, 0), "-out", ref}, 2},
	} {
		errs, _ := runCluster(t, append(run.args, opts...), make([][]string, run.workers))
		for w, err := range errs {
			if err != nil {
				t.Fatalf("reference worker %d of %d: %v", w, run.workers, err)
			}
		}
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestInProcessElasticMatchesTCP: cluster.Local fails the way a TCP
// cluster does, so every policy and script runs in process and writes
// the TCP cluster's bytes. A four-rank -elastic stream in which spare 3
// joins and member 1 drains at step 1 writes the -out and prints the
// rank-0 lines of the four-process TCP run, one transition on both; the
// TCP run's detector is fast and its steps long, so the drained
// process's window expires mid-stream, and a non-member's silence must
// not read as a death. And an in-process -elastic kill of rank 1 during
// step 1 writes the -out of the static runs that switch to two ranks at
// that step, failing with the scripted crash alone.
func TestInProcessElasticMatchesTCP(t *testing.T) {
	dir := t.TempDir()
	// Each step after the first grows the tensor several-fold, so at R 10
	// both run for hundreds of milliseconds: far past the 150 ms window
	// a 50 ms detector gives the drained process.
	long := writeGrownBook(t, dir, 2000, 10000, 20000)
	base := []string{"-tensor", strings.Join(long, ","), "-elastic", "-script", "join:3:1,drain:1:1",
		"-rank", "10", "-iters", "100", "-seed", "5", "-timeout", "30s"}
	tcpOut, localOut := filepath.Join(dir, "tcp.gob"), filepath.Join(dir, "local.gob")
	errs, tcpStdout := runCluster(t, append([]string{"-out", tcpOut, "-heartbeat", "50ms"}, base...), make([][]string, 4))
	for w, err := range errs {
		if err != nil {
			t.Fatalf("TCP worker %d: %v", w, err)
		}
	}
	stdout, err := runLocal(t, 2, append([]string{"-workers", "4", "-out", localOut}, base...)...)
	if err != nil {
		t.Fatal(err)
	}
	if rank0Lines(stdout) != rank0Lines(tcpStdout) || !strings.Contains(stdout, "transitions=1") {
		t.Fatalf("in-process rank-0 lines\n%s\nTCP rank-0 lines\n%s", stdout, tcpStdout)
	}
	want, err1 := os.ReadFile(tcpOut)
	got, err2 := os.ReadFile(localOut)
	if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
		t.Fatalf("in-process -out differs from the TCP cluster's (%v, %v)", err1, err2)
	}

	opts := []string{"-rank", "3", "-iters", "3", "-seed", "5", "-timeout", "30s"}
	two := writeSchedule(t, dir, []float64{0.85, 1.0})
	killOut := filepath.Join(dir, "kill.gob")
	_, err = runLocal(t, 2, append([]string{"-tensor", strings.Join(two, ","), "-workers", "3", "-elastic", "-script", "kill:1:1", "-out", killOut}, opts...)...)
	if err == nil || !errors.Is(err, core.ErrScriptedCrash) || !strings.HasPrefix(err.Error(), "rank 1: ") {
		t.Fatalf("in-process kill returned %v, want rank 1's scripted crash", err)
	}
	if _, down := cluster.AsPeerDown(err); down {
		t.Fatalf("in-process kill returned a survivor's error: %v", err)
	}
	got, err = os.ReadFile(killOut)
	if err != nil || !bytes.Equal(got, killReference(t, dir, two, opts)) {
		t.Fatalf("in-process survivors' -out differs from the 3-rank then 2-rank static runs (%v)", err)
	}
}

// rank0Lines keeps the lines a worker run prints for view rank 0.
func rank0Lines(stdout string) string {
	var keep []string
	for _, line := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(line, "rank 0: ") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// TestElasticResumeKeepsMembership: -resume starts from the membership
// the -script leaves after the checkpointed steps. Member 1 drains at
// step 1 of a three-rank -elastic stream; resumed after step 1's
// checkpoint, the run must not readmit it, and writes the uninterrupted
// run's -out byte for byte.
func TestElasticResumeKeepsMembership(t *testing.T) {
	dir := t.TempDir()
	snaps := writeSchedule(t, dir, []float64{0.7, 0.85, 1.0})
	ckpt := filepath.Join(dir, "ckpt")
	whole, resumed := filepath.Join(dir, "whole.gob"), filepath.Join(dir, "resumed.gob")
	base := []string{
		"-tensor", strings.Join(snaps, ","), "-workers", "3", "-checkpoint", ckpt,
		"-elastic", "-script", "drain:1:1",
		"-rank", "3", "-iters", "3", "-seed", "5", "-timeout", "30s",
	}
	if _, err := runLocal(t, 2, append([]string{"-out", whole}, base...)...); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(checkpointPath(ckpt, 2)); err != nil {
		t.Fatal(err)
	}
	stdout, err := runLocal(t, 2, append([]string{"-resume", "-out", resumed}, base...)...)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(stdout, "rank 0: iters="); n != 1 {
		t.Fatalf("resumed run ran %d steps, want only step 2: %q", n, stdout)
	}
	want, err1 := os.ReadFile(whole)
	got, err2 := os.ReadFile(resumed)
	if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
		t.Fatalf("resumed -out differs from the uninterrupted run's (%v, %v)", err1, err2)
	}
}

func readState(t *testing.T, path string) *dtd.State {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := dtd.ReadState(f)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// debugClient fetches from a debug server started on a free loopback
// port; the server closes when the test ends.
type debugClient struct {
	t    *testing.T
	base string
}

func newDebugClient(t *testing.T, o *obs.Obs, getPlane func() *obscluster.Plane) *debugClient {
	t.Helper()
	srv, addr, err := startDebugServer("127.0.0.1:0", o, getPlane)
	if err != nil {
		t.Skipf("loopback networking unavailable: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return &debugClient{t: t, base: "http://" + addr.String()}
}

// fetch returns the status, body and content type of GET path.
func (c *debugClient) fetch(path string) (int, string, string) {
	c.t.Helper()
	resp, err := http.Get(c.base + path)
	if err != nil {
		c.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

// get is fetch for a path that must answer 200; it returns the body.
func (c *debugClient) get(path string) string {
	c.t.Helper()
	code, body, _ := c.fetch(path)
	if code != http.StatusOK {
		c.t.Fatalf("GET %s: status %d: %s", path, code, body)
	}
	return body
}

func (c *debugClient) state() debugState {
	c.t.Helper()
	var st debugState
	if err := json.Unmarshal([]byte(c.get("/debug/state")), &st); err != nil {
		c.t.Fatalf("/debug/state: %v", err)
	}
	return st
}

// TestDebugServerEndpoints pins the -debug-addr surface a worker process
// exposes: exactly four families — /metrics, /debug/state,
// /debug/timeline and /debug/pprof/ — each with its content type. The
// paths this surface replaced answer 404.
func TestDebugServerEndpoints(t *testing.T) {
	o := obs.New()
	o.Counter("transport.reconnects").Add(3)
	o.Trace.SetRank(1)
	o.Span("mode0/mttkrp").End()
	o.Span("loss").End()
	c := newDebugClient(t, o, func() *obscluster.Plane { return nil })

	for _, path := range []string{"/debug/metrics", "/debug/vars", "/debug/phases", "/debug/trace", "/debug/cluster", "/debug/cluster/timeline"} {
		if code, _, _ := c.fetch(path); code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, code)
		}
	}
	if code, body, ct := c.fetch("/metrics"); code != http.StatusOK || !strings.Contains(body, "transport_reconnects 3") || !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics = %d %q (%s)", code, body, ct)
	}
	if code, body, ct := c.fetch("/debug/state"); code != http.StatusOK || !strings.Contains(body, `"loss"`) || ct != "application/json" {
		t.Fatalf("/debug/state = %d %q (%s)", code, body, ct)
	}
	code, body, ct := c.fetch("/debug/timeline")
	if code != http.StatusOK || ct != "application/x-ndjson" {
		t.Fatalf("/debug/timeline = %d (%s)", code, ct)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], "mode0/mttkrp") || !strings.Contains(lines[1], `"loss"`) {
		t.Fatalf("/debug/timeline = %q", body)
	}
	// The pprof index and a cheap profile; the CPU profile is fetched in
	// TestDebugServerServesProfilesAndMetrics.
	if body := c.get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %q", body)
	}
	if body := c.get("/debug/pprof/heap?debug=1"); !strings.Contains(body, "heap profile") {
		t.Fatalf("/debug/pprof/heap = %q", body)
	}
}

// TestDebugServerBeforePlane checks that the state and the timeline
// answer before the plane has coordinated a fence — with no plane, and
// with one that has not fenced yet — and show this rank's own view.
func TestDebugServerBeforePlane(t *testing.T) {
	o := obs.New()
	o.Span("mode0/mttkrp").End()
	var planeHolder atomic.Pointer[obscluster.Plane]
	c := newDebugClient(t, o, planeHolder.Load)

	for _, stage := range []string{"no plane", "plane before its first fence"} {
		st := c.state()
		if st.Cluster != nil || len(st.Phases) != 1 || st.Phases[0].Name != "mode0/mttkrp" {
			t.Fatalf("%s: /debug/state = %+v, want this rank's one phase and no cluster", stage, st)
		}
		if body := c.get("/debug/timeline"); !strings.Contains(body, `"mode0/mttkrp"`) {
			t.Fatalf("%s: /debug/timeline missing the rank's span: %s", stage, body)
		}
		planeHolder.Store(obscluster.NewPlane(false, o, 1))
	}
}

// TestDebugServerServesProfilesAndMetrics checks the debug server over a
// plane's first fence: /metrics carries runtime gauges even without a
// plane and the plane's counters after, concurrent scrapes are safe, the
// state and the timeline become the cluster's once the plane has fenced,
// and a CPU profile comes back as pprof.
func TestDebugServerServesProfilesAndMetrics(t *testing.T) {
	o := obs.New()
	o.Counter("mttkrp.rows").Add(42)
	o.Span("mode0/mttkrp").End()
	var planeHolder atomic.Pointer[obscluster.Plane]
	c := newDebugClient(t, o, planeHolder.Load)

	body := c.get("/metrics")
	if !strings.Contains(body, "mttkrp_rows 42") {
		t.Fatalf("/metrics missing Prometheus counter: %s", body)
	}
	if !strings.Contains(body, "runtime_heap_bytes") {
		t.Fatalf("/metrics without a plane lacks runtime gauges: %s", body)
	}

	// One fence on a one-rank cluster: the plane merges the spans
	// recorded before it. The fence's own span lands in the rank's ring
	// only after the record was cut, so a timeline carrying it is the
	// rank's, one without it the plane's. Concurrent scrapes meanwhile
	// share the listener's runtime sampler (and race the fence's own).
	planeHolder.Store(obscluster.NewPlane(false, o, 1))
	var scrapers sync.WaitGroup
	for i := 0; i < 4; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for j := 0; j < 5; j++ {
				resp, err := http.Get(c.base + "/metrics")
				if err != nil {
					t.Errorf("concurrent /metrics: %v", err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("concurrent /metrics: status %d", resp.StatusCode)
				}
			}
		}()
	}
	if _, err := cluster.NewLocal(1).Run(func(w *cluster.Worker) error {
		_, err := planeHolder.Load().Fence(w, []int{0}, 0, 0, []float64{1})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	scrapers.Wait()
	st := c.state()
	if st.Cluster == nil || st.Cluster.Fences != 1 || len(st.Cluster.Ranks) != 1 {
		t.Fatalf("/debug/state after a fence = %+v, want the one-fence cluster table", st.Cluster)
	}
	body = c.get("/debug/timeline")
	if !strings.Contains(body, `"mode0/mttkrp"`) || strings.Contains(body, `"plane/fence"`) {
		t.Fatalf("/debug/timeline after a fence is not the plane's merged timeline: %s", body)
	}
	if body := c.get("/metrics"); !strings.Contains(body, "plane_fences 1") {
		t.Fatalf("/metrics missing the plane's fence counter: %s", body)
	}

	// A short CPU profile must come back as a valid (gzipped) pprof
	// payload — the acceptance check `go tool pprof <addr>` depends on.
	prof := c.get("/debug/pprof/profile?seconds=1")
	if len(prof) == 0 || prof[0] != 0x1f {
		t.Fatalf("profile response does not look like gzipped pprof (%d bytes)", len(prof))
	}
}
