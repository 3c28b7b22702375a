package core

import (
	"fmt"
	"testing"

	"dismastd/internal/cluster"
	"dismastd/internal/dataset"
	"dismastd/internal/dtd"
	"dismastd/internal/layout"
	"dismastd/internal/partition"
	"dismastd/internal/tensor"
)

// TestWorkerComputePathAllocFree pins the workspace property on the
// distributed binding's compute path: at Workers=1 every collective is
// degenerate, so a warm run of the shared dtd.Sweep engine — bound from
// the plan and a cluster worker exactly as RunWorker binds it — is the
// per-rank compute path alone (MTTKRP, Eq. (5) denominators, owned-row
// updates, Gram partials, both halves of the Eq. (4) loss) and must
// perform zero heap allocations. internal/dtd pins the same engine in
// its world-of-one binding; TestDistributedSweepAllocFree below adds
// the transport.
func TestWorkerComputePathAllocFree(t *testing.T) {
	for _, threads := range []int{1, 4} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			testEngineAllocFree(t, 1, threads)
		})
	}
}

// TestDistributedSweepAllocFree extends the zero-allocation guarantee
// across the transport: a full multi-rank steady-state run — MTTKRP,
// solves, the batched Gram all-reduce, the subscription row exchange,
// and the scalar loss reduction — performs zero heap allocations on the
// Local transport. Every rank measures concurrently, and AllocsPerRun counts process-global
// mallocs, so a zero here means no rank allocated anywhere in the
// overlapping measurement windows.
func TestDistributedSweepAllocFree(t *testing.T) {
	const workers = 3 // odd: exercises the uneven tree
	for _, tc := range []struct {
		name    string
		threads int
	}{
		{"tree/threads=1", 1},
		{"tree/threads=4", 4},
		// The same arms again: they ran the COO walk while a rank's layout
		// was an option; the names stay so the test IDs do.
		{"compiled/threads=1", 1},
		{"compiled/threads=4", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testEngineAllocFree(t, workers, tc.threads)
		})
	}
}

func testEngineAllocFree(t *testing.T, workers, threads int) {
	full := sparseRandom([]int{12, 10, 8}, 600, 5)
	prevSnap := full.Prefix([]int{9, 8, 6})
	opts := Options{Rank: 3, MaxIters: 5, Mu: 0.7, Seed: 11, Workers: workers, Threads: threads, Method: partition.GTPMethod}
	prev, _, err := dtd.Init(prevSnap, dtd.Options{Rank: opts.Rank, MaxIters: opts.MaxIters, Mu: opts.Mu, Seed: opts.Seed})
	if err != nil {
		t.Fatal(err)
	}
	job, err := NewStepJob(prev, full, opts)
	if err != nil {
		t.Fatal(err)
	}

	perRank := make([]float64, workers)
	if _, err := cluster.NewLocal(workers).Run(func(w *cluster.Worker) error {
		eng := job.bind(w)
		defer eng.Close()
		// One rank's steady-state run, fully instrumented — pre-resolved
		// counters and spans included — collectives and exchange included.
		// Every rank runs pass the same number of times (one warm-up here,
		// one inside AllocsPerRun, then the measured runs), and the loss
		// every rank stops on is the same reduced value, so the lockstep
		// collective contract holds across the concurrent measurements.
		var passErr error
		pass := func() {
			if passErr != nil {
				return // a failed rank stops participating; peers unblock via its down mark
			}
			passErr = eng.Run(nil)
		}
		pass() // warm-up: workspaces, comm buffers, stream tags, mailbox queues
		allocs := testing.AllocsPerRun(10, pass)
		if passErr != nil {
			return passErr
		}
		perRank[w.Rank()] = allocs
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for rank, a := range perRank {
		if a != 0 {
			t.Errorf("rank %d: steady-state sweep allocates %v times per run, want 0", rank, a)
		}
	}
}

// TestBindDefaultsToCompiledUnderSpan pins what a rank's binding builds
// (the shape of the benchmark's dist_tcp NewStepJob call): every rank's
// kernel is a compiled layout, one per mode, and the rank records the
// construction as one plan/compile span on its own tracer.
func TestBindDefaultsToCompiledUnderSpan(t *testing.T) {
	full := sparseRandom([]int{12, 10, 8}, 600, 5)
	prev, _, err := dtd.Init(full.Prefix([]int{9, 8, 6}), dtd.Options{Rank: 3, MaxIters: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 2
	job, err := NewStepJob(prev, full, Options{Rank: 3, MaxIters: 2, Seed: 11, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := cluster.NewLocal(workers).Run(job.RunWorker)
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < workers; rank++ {
		for m, k := range job.kernels(rank, nil) {
			if _, ok := k.(*layout.ModeLayout); !ok {
				t.Errorf("rank %d mode %d kernel is %T, want *layout.ModeLayout", rank, m, k)
			}
		}
		var spans int64
		for _, ps := range stats.Ranks[rank].Obs.Phases {
			if ps.Name == "plan/compile" {
				spans += ps.Count
			}
		}
		if spans != 1 {
			t.Errorf("rank %d recorded %d plan/compile spans, want 1", rank, spans)
		}
	}
}

// TestRankTraceShowsStackGatherAndSort pins what this package adds to a
// rank's own trace around its sweeps: one plan/stack span (the rank
// stacking its starting factors in Bind), one gather span, and the
// plan.slices.sorted counter — the slices the partitioner actually
// sorted, which under MTP is the slices the complement names and not the
// mode lengths.
func TestRankTraceShowsStackGatherAndSort(t *testing.T) {
	full := sparseRandom([]int{60, 50, 8}, 300, 5)
	prev, _, err := dtd.Init(full.Prefix([]int{45, 40, 6}), dtd.Options{Rank: 3, MaxIters: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 2
	job, err := NewStepJob(prev, full, Options{Rank: 3, MaxIters: 2, Seed: 11, Workers: workers, Method: partition.MTPMethod})
	if err != nil {
		t.Fatal(err)
	}
	var named, slices int64
	for m := range full.Dims {
		for _, a := range job.plan.Tensor.SliceNNZ(m) {
			slices++
			if a > 0 {
				named++
			}
		}
	}
	if named == 0 || named >= slices {
		t.Fatalf("fixture: %d of %d slices named; want some and not all", named, slices)
	}
	stats, err := cluster.NewLocal(workers).Run(job.RunWorker)
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < workers; rank++ {
		snap := stats.Ranks[rank].Obs
		for _, name := range []string{"plan/stack", "gather"} {
			var spans int64
			for _, ps := range snap.Phases {
				if ps.Name == name {
					spans += ps.Count
				}
			}
			if spans != 1 {
				t.Errorf("rank %d recorded %d %s spans, want 1", rank, spans, name)
			}
		}
		if got := snap.Metrics.Counters["plan.slices.sorted"]; got != named {
			t.Errorf("rank %d: plan.slices.sorted %d, want the %d slices the complement names (of %d)", rank, got, named, slices)
		}
	}
}

// BenchmarkSessionStream measures what the dist_* benchmark workloads
// pay per pass: five growth steps (75 % → 100 % in 5 % cuts) through one
// Session on the in-process cluster, each step planned, bound, swept and
// gathered from the state the last one left. The stream is Book-shaped
// (the dims-dominated regime `make profile` exists to show): every
// step's complement names a small minority of the owned rows, at MTP on
// two workers, so the profile is of a step's fixed cost around its
// sweeps as much as of the sweeps.
func BenchmarkSessionStream(b *testing.B) {
	seq, err := dataset.Stream(dataset.Preset(dataset.Book, 100_000, 5).Generate(), []float64{0.75, 0.80, 0.85, 0.90, 0.95, 1})
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Rank: 8, MaxIters: 10, Tol: 1e-300, Mu: 0.7, Seed: 11, Workers: 2, Method: partition.MTPMethod}
	first, _, err := dtd.Init(seq.Snapshot(0), dtd.Options{Rank: opts.Rank, MaxIters: 5, Mu: opts.Mu, Seed: opts.Seed})
	if err != nil {
		b.Fatal(err)
	}
	snaps := make([]*tensor.Tensor, 0, seq.Len()-1)
	for step := 1; step < seq.Len(); step++ {
		snaps = append(snaps, seq.Snapshot(step))
	}
	s := NewSession(opts.Workers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := first
		for _, snap := range snaps {
			if st, _, err = s.Step(st, snap, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}
