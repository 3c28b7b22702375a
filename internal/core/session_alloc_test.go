package core

import (
	"runtime"
	"testing"

	"dismastd/internal/dataset"
	"dismastd/internal/dtd"
	"dismastd/internal/partition"
)

// TestSessionStepAllocBytes is the timing-free gate on a distributed
// step's fixed cost: the bytes one warm Session.Step allocates, as a
// multiple of what the ranks must hold anyway — Workers × the state. The
// fixture is Book-shaped and dims-dominated (at least nine old rows in
// ten are quiet), two ranks at MTP, the regime of the dist_* benchmark
// workloads, where everything a step allocates beyond its replicas is
// plan tables, staging copies and zeroed result matrices sized by the
// mode lengths. What is left at the bound is each rank's replica and
// MTTKRP buffer (2 × state per rank) plus the plan.
func TestSessionStepAllocBytes(t *testing.T) {
	const workers, rank = 2, 8
	const bound = 3.81 // measured 3.466 (the parent of this gate: 5.756), plus 10 %
	spec := dataset.Spec{Name: "book", Dims: []int{12000, 3000, 32}, NNZ: 12000, Skew: []float64{1.1, 1.05, 0.6}, Rating: true, Seed: 7}
	seq, err := dataset.Stream(spec.Generate(), []float64{0.75, 0.80, 1})
	if err != nil {
		t.Fatal(err)
	}
	snap := seq.Snapshot(1)
	prev, _, err := dtd.Init(seq.Snapshot(0), dtd.Options{Rank: rank, MaxIters: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	comp := snap.Complement(prev.Dims)
	var oldRows, quiet int
	for m, d := range prev.Dims {
		for _, a := range comp.SliceNNZ(m)[:d] {
			oldRows++
			if a == 0 {
				quiet++
			}
		}
	}
	if 10*quiet < 9*oldRows {
		t.Fatalf("fixture: only %d of %d old rows are quiet; want at least 90 %%", quiet, oldRows)
	}
	var stateBytes uint64
	for _, d := range snap.Dims {
		stateBytes += uint64(8 * d * rank)
	}

	s := NewSession(workers)
	opts := Options{Rank: rank, MaxIters: 3, Tol: 1e-300, Seed: 11, Method: partition.MTPMethod}
	step := func() {
		if _, _, err := s.Step(prev, snap, opts); err != nil {
			t.Fatal(err)
		}
	}
	step() // warm: transport pool, stream tags
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	step()
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / float64(workers*stateBytes)
	t.Logf("one warm step allocates %d bytes = %.3f × (%d workers × %d state bytes)", after.TotalAlloc-before.TotalAlloc, got, workers, stateBytes)
	if got > bound {
		t.Fatalf("one warm Session.Step allocates %.3f × Workers × state bytes, bound %.3f", got, bound)
	}
}
