package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dismastd"
	"dismastd/internal/cluster"
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
					"-plane", // observability fences ride along
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
	var stdout, stderr bytes.Buffer
	for name, args := range map[string][]string{
		"neither mode":              {},
		"serve without size":        {"-serve", "127.0.0.1:0"},
		"join without file":         {"-join", "127.0.0.1:1"},
		"bad method":                {"-join", "127.0.0.1:1", "-tensor", "x.tsv", "-method", "zzz"},
		"resume without checkpoint": {"-join", "127.0.0.1:1", "-tensor", "x.tsv", "-resume"},
		"rebalance without elastic": {"-join", "127.0.0.1:1", "-tensor", "x.tsv", "-rebalance-on-imbalance"},
		"members without elastic":   {"-join", "127.0.0.1:1", "-tensor", "x.tsv", "-members", "2"},
		"drain without elastic":     {"-join", "127.0.0.1:1", "-tensor", "x.tsv", "-drain-at", "1:1"},
	} {
		if err := run(args, &stdout, &stderr); err == nil {
			t.Fatalf("%s accepted", name)
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
		append([]string{"-checkpoint", ckpt, "-heartbeat", "150ms", "-kill-at", "1:1"}, base...),
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
		{"absorb", []string{"-elastic"}},
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
		"-elastic", "-members", "3", "-join-at", "3:1", "-drain-at", "1:1",
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
// heartbeat, agree the shrunken view, absorb its rows, and finish the
// stream without it — same cluster run, no restart.
func TestElasticWorkerKillRecovers(t *testing.T) {
	dir := t.TempDir()
	snaps := writeSnapshots(t, dir)
	state := filepath.Join(dir, "state.gob")
	base := []string{
		"-tensor", snaps[0] + "," + snaps[1],
		"-rank", "3", "-iters", "3", "-seed", "5", "-timeout", "30s",
		"-elastic", "-kill-at", "1:1", "-heartbeat", "150ms",
		"-out", state,
	}
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
	st := readState(t, state)
	if len(st.Dims) == 0 || st.Dims[0] == 0 {
		t.Fatalf("written state has dims %v", st.Dims)
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

// TestDebugServerServesProfilesAndMetrics pins the -debug-addr surface:
// a live HTTP listener must serve the metrics registry as JSON, the
// span ring as JSONL, and a working CPU profile from net/http/pprof —
// the same endpoints a worker process exposes.
func TestDebugServerServesProfilesAndMetrics(t *testing.T) {
	o := obs.New()
	o.Counter("mttkrp.rows").Add(42)
	sp := o.Span("mode0/mttkrp")
	sp.End()

	var planeHolder atomic.Pointer[obscluster.Plane]
	srv, addr, err := startDebugServer("127.0.0.1:0", o, planeHolder.Load)
	if err != nil {
		t.Skipf("loopback networking unavailable: %v", err)
	}
	defer srv.Close()
	base := "http://" + addr.String()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return string(body)
	}

	if body := get("/debug/metrics"); !strings.Contains(body, `"mttkrp.rows": 42`) {
		t.Fatalf("metrics missing counter: %s", body)
	}
	if body := get("/debug/trace"); !strings.Contains(body, `"mode0/mttkrp"`) {
		t.Fatalf("trace missing span: %s", body)
	}
	if body := get("/metrics"); !strings.Contains(body, "mttkrp_rows 42") {
		t.Fatalf("/metrics missing Prometheus counter: %s", body)
	}

	// The cluster views 503 until a plane exists, then serve the
	// aggregator snapshot — the holder is resolved per scrape.
	if resp, err := http.Get(base + "/debug/cluster"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/debug/cluster before any plane: status %d, want 503", resp.StatusCode)
	}
	planeHolder.Store(obscluster.NewPlane(obscluster.Config{}, o, 1))
	if body := get("/debug/cluster"); !strings.Contains(body, `"detector"`) {
		t.Fatalf("/debug/cluster missing detector snapshot: %s", body)
	}

	// A short CPU profile must come back as a valid (gzipped) pprof
	// payload — the acceptance check `go tool pprof <addr>` depends on.
	prof := get("/debug/pprof/profile?seconds=1")
	if len(prof) == 0 || prof[0] != 0x1f {
		t.Fatalf("profile response does not look like gzipped pprof (%d bytes)", len(prof))
	}
}
