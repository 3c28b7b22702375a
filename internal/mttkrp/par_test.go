package mttkrp

import (
	"math"
	"testing"

	"dismastd/internal/layout"
	"dismastd/internal/mat"
	"dismastd/internal/obs"
	"dismastd/internal/par"
)

func bitsEqual(t *testing.T, name string, got, want *mat.Dense) {
	t.Helper()
	for i, v := range got.Data {
		if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %x, want %x", name, i, v, want.Data[i])
		}
	}
}

// TestSubsetViewMatchesFlat pins the view generalisation the
// distributed workers rely on: grouping an arbitrary entry subset and
// accumulating into a zeroed destination must reproduce the flat
// kernel run over the same subset, bit for bit.
func TestSubsetViewMatchesFlat(t *testing.T) {
	x := randomTensor([]int{13, 9, 7}, 400, 3)
	factors := randomFactors(x.Dims, 5, 4)
	// An adversarial subset: strided, unsorted within strides.
	var entries []int32
	for e := x.NNZ() - 1; e >= 0; e -= 3 {
		entries = append(entries, int32(e))
	}
	want := mat.New(x.Dims[1], 5)
	tmp := make([]float64, 5)
	for _, e := range entries {
		entryProductInto(tmp, x, factors, 1, int(e))
		out := want.Row(int(x.Coords[int(e)*x.Order()+1]))
		for c := range tmp {
			out[c] += tmp[c]
		}
	}
	view := NewModeViewOf(x, 1, entries)
	if view.NNZ() != len(entries) {
		t.Fatalf("view covers %d entries, want %d", view.NNZ(), len(entries))
	}
	got := mat.New(x.Dims[1], 5)
	view.AccumulateIntoWS(got, factors, mat.NewWorkspace())
	bitsEqual(t, "subset view", got, want)
}

// TestParAccumulateBitwiseAcrossThreads pins the tentpole determinism
// property at the kernel level: the chunked MTTKRP reproduces the
// sequential grouped kernel exactly for every thread count.
func TestParAccumulateBitwiseAcrossThreads(t *testing.T) {
	x := randomTensor([]int{50, 31, 8}, 3000, 9)
	factors := randomFactors(x.Dims, 6, 10)
	for mode := 0; mode < x.Order(); mode++ {
		view := NewModeView(x, mode)
		want := mat.New(x.Dims[mode], 6)
		view.AccumulateIntoWS(want, factors, mat.NewWorkspace())
		for _, threads := range []int{1, 2, 3, 8} {
			pool := par.New(threads)
			wss := mat.NewWorkspaceSet(pool.Threads())
			acc := NewParAccumulator(pool, wss, obs.New())
			got := mat.New(x.Dims[mode], 6)
			acc.Accumulate(got, view, factors, "mttkrp.chunk")
			bitsEqual(t, "parallel accumulate", got, want)
			pool.Close()
		}
	}
}

func TestChunkStartsBalanced(t *testing.T) {
	x := randomTensor([]int{40, 12, 6}, 5000, 21)
	view := NewModeView(x, 0)
	for _, c := range []int{1, 2, 3, 8, 100} {
		starts := view.ChunkStarts(c)
		if int(starts[0]) != 0 || int(starts[len(starts)-1]) != view.NumRows() {
			t.Fatalf("c=%d: grid %v does not span all %d groups", c, starts, view.NumRows())
		}
		if len(starts)-1 > c {
			t.Fatalf("c=%d: %d chunks", c, len(starts)-1)
		}
		for i := 1; i < len(starts); i++ {
			if starts[i] < starts[i-1] {
				t.Fatalf("c=%d: non-monotone grid %v", c, starts)
			}
		}
		// Each chunk's entry load stays within 2x of the ideal share
		// (+ one group of slack for the boundary snap).
		if c > 1 && c <= view.NumRows() {
			ideal := view.NNZ() / c
			maxGroup := 0
			for g := 0; g < view.NumRows(); g++ {
				if sz := int(view.Starts[g+1] - view.Starts[g]); sz > maxGroup {
					maxGroup = sz
				}
			}
			for i := 0; i+1 < len(starts); i++ {
				load := int(view.Starts[starts[i+1]] - view.Starts[starts[i]])
				if load > 2*ideal+maxGroup {
					t.Fatalf("c=%d chunk %d carries %d entries, ideal %d (max group %d)", c, i, load, ideal, maxGroup)
				}
			}
		}
	}
}

// TestParAccumulateSteadyStateAllocFree: a warm accumulator dispatches
// with zero heap allocations, preserving the PR 2 invariant with the
// pool live.
func TestParAccumulateSteadyStateAllocFree(t *testing.T) {
	x := randomTensor([]int{64, 32, 16}, 4000, 5)
	factors := randomFactors(x.Dims, 8, 6)
	view := NewModeView(x, 0)
	pool := par.New(4)
	defer pool.Close()
	wss := mat.NewWorkspaceSet(pool.Threads())
	acc := NewParAccumulator(pool, wss, obs.New())
	dst := mat.New(x.Dims[0], 8)
	pass := func() {
		dst.Zero()
		acc.Accumulate(dst, view, factors, "mode0/mttkrp.chunk")
	}
	pass()
	if allocs := testing.AllocsPerRun(10, pass); allocs != 0 {
		t.Fatalf("steady-state parallel MTTKRP allocates %v times, want 0", allocs)
	}
}

// TestParAccumulateCompiledSteadyStateAllocFree: the compiled layout's
// post-compile steady state — a warm accumulator dispatching a
// compiled kernel across the pool — allocates nothing, same contract
// as the COO view.
func TestParAccumulateCompiledSteadyStateAllocFree(t *testing.T) {
	x := randomTensor([]int{64, 32, 16}, 4000, 5)
	factors := randomFactors(x.Dims, 8, 6)
	kernel := NewKernel(x, 0, layout.Compiled)
	pool := par.New(4)
	defer pool.Close()
	wss := mat.NewWorkspaceSet(pool.Threads())
	acc := NewParAccumulator(pool, wss, obs.New())
	dst := mat.New(x.Dims[0], 8)
	pass := func() {
		dst.Zero()
		acc.Accumulate(dst, kernel, factors, "mode0/mttkrp.chunk")
	}
	pass()
	if allocs := testing.AllocsPerRun(10, pass); allocs != 0 {
		t.Fatalf("steady-state compiled parallel MTTKRP allocates %v times, want 0", allocs)
	}
}

// TestParAccumulateCompiledMatchesCOOAllThreadCounts: the parallel
// compiled kernel reproduces the sequential COO result bitwise at
// every pool size.
func TestParAccumulateCompiledMatchesCOOAllThreadCounts(t *testing.T) {
	x := randomTensor([]int{40, 24, 12}, 3000, 7)
	factors := randomFactors(x.Dims, 6, 8)
	for mode := 0; mode < x.Order(); mode++ {
		want := mat.New(x.Dims[mode], 6)
		AccumulateInto(want, x, factors, mode)
		kernel := NewKernel(x, mode, layout.Compiled)
		for _, threads := range []int{1, 2, 3, 8} {
			pool := par.New(threads)
			wss := mat.NewWorkspaceSet(pool.Threads())
			acc := NewParAccumulator(pool, wss, obs.New())
			dst := mat.New(x.Dims[mode], 6)
			acc.Accumulate(dst, kernel, factors, "")
			pool.Close()
			for i, v := range dst.Data {
				if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
					t.Fatalf("mode %d threads %d: parallel compiled differs from flat COO at %d", mode, threads, i)
				}
			}
		}
	}
}
