package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"

	"dismastd/internal/dataset"
)

// The smoke tests run every workload, untraced and traced, at a private
// scale that shrinks inputs, repetitions and windows until all ten runs
// fit in a few seconds.
const testScale = 0.02

var testWorker string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "benchmark-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	testWorker = filepath.Join(dir, "worker")
	if out, err := exec.Command("go", "build", "-o", testWorker, "dismastd/cmd/worker").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build cmd/worker: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	killLiveServers()
	os.RemoveAll(dir)
	os.Exit(code)
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestWorkloadsEmitTheContract(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl.Name, traced), func(t *testing.T) {
				cfg := config{
					workload: wl.Name, seed: 42, seconds: 0.5, trace: traced, scale: testScale,
					outDir: t.TempDir(), workerBin: testWorker,
				}
				res, rec, err := runWorkload(cfg)
				if err != nil {
					t.Fatal(err)
				}
				specs := endToEnd
				if traced {
					specs = perLayer
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("emitted %d metrics, contract lists %d", len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					m, ok := res.Metrics[s.Name]
					switch {
					case !ok:
						t.Errorf("%s not emitted", s.Name)
					case m.Unit != s.Unit:
						t.Errorf("%s has unit %q, contract says %q", s.Name, m.Unit, s.Unit)
					case m.Value != m.Value:
						t.Errorf("%s is NaN", s.Name)
					case !traced && m.Value == 0:
						t.Errorf("end-to-end metric %s is 0", s.Name)
					}
				}
				for name := range res.Metrics {
					if !nameRE.MatchString(name) {
						t.Errorf("metric name %q is outside the contract's alphabet", name)
					}
				}
				if res.Failed != 0 || !res.Correct {
					t.Errorf("failed %d of %d operations: %+v", res.Failed, res.Attempted, res.Checks)
				}
				if res.Env.NProc < 1 || res.Env.GoVersion == "" || res.InputHash == "" {
					t.Errorf("environment record incomplete: %+v hash %q", res.Env, res.InputHash)
				}
				var line struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]metricValue
				}
				if err := json.Unmarshal([]byte(res.contractLine()), &line); err != nil || line.Attempted < 1 || len(line.Metrics) != len(specs) {
					t.Errorf("contract line does not parse back: %v %+v", err, line)
				}
				if traced {
					checkSpans(t, rec.spans)
				} else if rec != nil {
					t.Error("untraced run returned a recorder")
				}
				if left, _ := filepath.Glob(filepath.Join(cfg.outDir, "*")); len(left) != 0 {
					t.Errorf("temporary files left behind: %v", left)
				}
			})
		}
	}
}

// checkSpans verifies the spans nest: a child lies inside its parent,
// which precedes it in the file, and no self time is negative.
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	for i, s := range spans {
		if s.EndNS < s.StartNS {
			t.Fatalf("span %d %q ends before it starts", i, s.Name)
		}
		if s.Parent >= 0 {
			p := spans[s.Parent]
			if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
				t.Fatalf("span %d %q [%d,%d] leaves its parent %q [%d,%d]", i, s.Name, s.StartNS, s.EndNS, p.Name, p.StartNS, p.EndNS)
			}
		}
	}
	for i, self := range selfTimes(spans) {
		if self < 0 {
			t.Fatalf("span %d %q has self time %d", i, spans[i].Name, self)
		}
	}
}

func TestRecorderForkJoinAndSelfTime(t *testing.T) {
	spans := []span{
		{Name: "window", StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "w1", StartNS: 10, EndNS: 60, Parent: 0},
		{Name: "r1", StartNS: 40, EndNS: 90, Parent: 0}, // overlaps w1: another goroutine
		{Name: "inner", StartNS: 45, EndNS: 50, Parent: 2},
	}
	got := selfTimes(spans)
	want := []int64{20, 50, 45, 5} // window: 100 − |[10,90]|
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}

	r := newRecorder("w")
	outer := r.begin("outer")
	child := r.fork()
	child.end(child.begin("forked"))
	r.join(child)
	r.end(outer)
	if len(r.spans) != 2 || r.spans[1].Parent != 0 {
		t.Fatalf("joined span not re-rooted under the open span: %+v", r.spans)
	}
	checkSpans(t, r.spans)

	var none *recorder
	none.end(none.begin("ignored"))
	none.join(none.fork())
}

func TestTailPercentile(t *testing.T) {
	sample := func(n int) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = float64(n - i) // 1..n, unsorted
		}
		return vs
	}
	for _, tc := range []struct {
		n          int
		value, pct float64
	}{
		{10, 5.5, 50},     // too few for any tail
		{19, 10, 50},      // still fewer than ten beyond the median's upper neighbours
		{100, 90, 90},     // ten beyond the 90th value
		{924, 914, 98.92}, // 1 % of 924 is fewer than ten, so below p99
		{5000, 4950, 99},  // p99 has fifty beyond it; the cap applies
	} {
		v, pct := tailPercentile(sample(tc.n))
		beyond := tc.n - int(v)
		if v != tc.value || pct < tc.pct-0.01 || pct > tc.pct+0.01 {
			t.Errorf("n=%d: got value %v at p%.2f, want %v at p%.2f", tc.n, v, pct, tc.value, tc.pct)
		}
		if tc.n >= 20 && beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond the reported percentile", tc.n, beyond)
		}
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	vs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := iqrShare(vs), (8.25-2.75)/5.5; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	gen := func(seed uint64) string {
		in, err := genStream(dataset.Netflix, 5000, seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(in.snaps) != 6 || in.snaps[5].NNZ() != in.full.NNZ() {
			t.Fatalf("growth schedule has %d snapshots", len(in.snaps))
		}
		return in.hash
	}
	if gen(42) != gen(42) {
		t.Error("same seed generated different tensors")
	}
	if gen(42) == gen(7) {
		t.Error("different seeds generated the same tensor")
	}
	events := func(seed uint64) uint64 {
		g := newEventGen([]int{600, 200, 20}, seed)
		g.pin()
		g.batch(64, true)
		return g.hash
	}
	if events(42) != events(42) || events(42) == events(7) {
		t.Error("event generator is not a function of its seed alone")
	}
	g := newEventGen([]int{600, 200, 20}, 1)
	if a, b := g.growthEvent(), g.growthEvent(); a.Coords[0] != 600 || b.Coords[1] != 200 || g.dims[0] != 601 || g.dims[1] != 201 {
		t.Errorf("growth events do not extend modes 0 and 1 by one index: %v %v", a, b)
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100.5}
	for _, tc := range []struct {
		name   string
		b      []float64
		better string
		want   string
	}{
		{"within the bound", []float64{104, 105, 103, 104, 104.5}, "lower", "same"},
		{"slower than the bound", []float64{120, 121, 119, 120, 120.5}, "lower", "worse"},
		{"faster than the bound", []float64{80, 81, 79, 80, 80.5}, "lower", "better"},
		{"higher is better", []float64{120, 121, 119, 120, 120.5}, "higher", "better"},
		{"own spread wider than the bound", []float64{70, 130, 100, 85, 118}, "lower", "unresolved"},
		{"wide but every run wins", []float64{50, 80, 60, 70, 55}, "lower", "better"},
	} {
		if got, _ := verdict(steady, tc.b, tc.better, 0.10); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestBenchmarkJSONMatchesSpec keeps the driver's contract file and the
// tables the program emits from in step, and checks the file against
// the limits the contract sets.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil || len(keys) != 6 {
		t.Errorf("BENCHMARK.json must have exactly six keys, has %d", len(keys))
	}
	equal := func(what string, got, want any) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		if string(g) != string(w) {
			t.Errorf("%s in BENCHMARK.json differs from spec.go:\n file %s\n spec %s", what, g, w)
		}
	}
	equal("workloads", file.Workloads, workloads)
	equal("end_to_end", file.EndToEnd, endToEnd)
	equal("per_layer", file.PerLayer, perLayer)
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", file.Paths)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", file.RunSeconds)
	}
	seen := map[string]bool{}
	setup := false
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(s.Name) || seen[s.Name] {
			t.Errorf("metric name %q is malformed or used twice", s.Name)
		}
		seen[s.Name] = true
		if !regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`).MatchString(s.Unit) {
			t.Errorf("unit %q of %s is outside the contract's alphabet", s.Unit, s.Name)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("%s: better = %q", s.Name, s.Better)
		}
		if s.Name == "setup_s" {
			setup = s.Unit == "s" && s.Better == "lower"
		}
	}
	for _, s := range endToEnd {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
		if s.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", s.Name)
		}
	}
	for _, s := range perLayer {
		if s.Bound != 0 {
			t.Errorf("per-layer metric %s carries a bound", s.Name)
		}
	}
	if !setup || endToEnd[0].Name != "setup_s" {
		t.Error("setup_s (unit s, lower is better) must lead the end-to-end metrics")
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or a why of %d characters", w.Name, len(w.Why))
		}
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Error("too many or too few workloads or metrics")
	}
}
