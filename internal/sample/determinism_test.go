package sample_test

import (
	"testing"

	"dismastd"
	"dismastd/internal/cp"
	"dismastd/internal/dtd"
	"dismastd/internal/mat"
	"dismastd/internal/sample"
	"dismastd/internal/tensor"
	"dismastd/internal/xrand"
)

// denseCube enumerates every cell of a d×d×d random rank-rk CP model
// plus noise — dense fibers, the sketch's favourable regime, so exact
// and sampled ALS both reach fit ≈ 1.
func denseCube(d, rk int, seed uint64) *tensor.Tensor {
	src := xrand.New(seed)
	factors := make([][]float64, 3)
	for m := range factors {
		factors[m] = make([]float64, d*rk)
		for i := range factors[m] {
			factors[m][i] = src.Float64()
		}
	}
	b := tensor.NewBuilder([]int{d, d, d})
	idx := make([]int, 3)
	for i := 0; i < d; i++ {
		idx[0] = i
		for j := 0; j < d; j++ {
			idx[1] = j
			for k := 0; k < d; k++ {
				idx[2] = k
				v := 0.0
				for r := 0; r < rk; r++ {
					v += factors[0][i*rk+r] * factors[1][j*rk+r] * factors[2][k*rk+r]
				}
				b.Append(idx, v+0.01*src.NormFloat64())
			}
		}
	}
	return b.Build()
}

func sampledOpts(threads int) dtd.Options {
	return dtd.Options{
		Rank: 4, MaxIters: 8, Tol: 1e-12, Seed: 7, Threads: threads,
		Solver: sample.Sampled,
	}
}

func factorsEqual(t *testing.T, a, b []*mat.Dense, what string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d factors", what, len(a), len(b))
	}
	for m := range a {
		if a[m].Rows != b[m].Rows || a[m].Cols != b[m].Cols {
			t.Fatalf("%s: factor %d shape mismatch", what, m)
		}
		for i, v := range a[m].Data {
			if v != b[m].Data[i] {
				t.Fatalf("%s: factor %d differs at %d: %x vs %x", what, m, i, v, b[m].Data[i])
			}
		}
	}
}

// TestSampledBitwiseAcrossThreads runs sampled CP-ALS at 1 and 4
// compute threads and demands bitwise-identical factors: draws come
// from the driving goroutine's sub-streams and the sketched MTTKRP
// partitions rows into disjoint chunks, so the thread count must not
// leak into the result.
func TestSampledBitwiseAcrossThreads(t *testing.T) {
	x := denseCube(24, 4, 42)
	var base []*mat.Dense
	for _, threads := range []int{1, 2, 4} {
		st, _, err := dtd.Init(x, sampledOpts(threads))
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = st.Factors
			continue
		}
		factorsEqual(t, base, st.Factors, "threads")
	}
}

// TestSampledRepeatableRuns demands two identical invocations produce
// bitwise-identical factors — the sketch is pseudo-random, never
// nondeterministic.
func TestSampledRepeatableRuns(t *testing.T) {
	x := denseCube(20, 4, 9)
	a, _, err := dtd.Init(x, sampledOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := dtd.Init(x, sampledOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	factorsEqual(t, a.Factors, b.Factors, "runs")
}

// TestSampledFitNearExact is the quality gate at test scale: on a
// dense planted low-rank cube both solvers must reach a high fit, with
// the sampled fit within 5e-2 of exact (the acceptance benchmark
// enforces 1e-2 at nnz ≥ 10^6 — see BenchmarkSampledALS).
func TestSampledFitNearExact(t *testing.T) {
	x := denseCube(30, 4, 4)
	norm := x.Norm()
	opts := sampledOpts(2)
	opts.Solver = sample.Exact
	exact, _, err := dtd.Init(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Solver = sample.Sampled
	smp, _, err := dtd.Init(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	fitE := 1 - cp.LossAgainst(x, exact.Factors)/norm
	fitS := 1 - cp.LossAgainst(x, smp.Factors)/norm
	if fitE < 0.95 {
		t.Fatalf("exact fit %.4f too low for a planted model", fitE)
	}
	if gap := fitE - fitS; gap > 5e-2 {
		t.Fatalf("sampled fit %.4f trails exact %.4f by %.4f", fitS, fitE, gap)
	}
}

// TestSampledStreamDeterministicWorldSize drives the full public
// stream — static CP on the first snapshot, an incremental DTD step on
// the second — under the sampled solver with a 3-worker in-process
// cluster, twice, and demands bitwise-identical factors: at a fixed
// world size every rank replays its own draw streams exactly.
func TestSampledStreamDeterministicWorldSize(t *testing.T) {
	first := denseCube(18, 4, 11)
	grown := denseCube(22, 4, 11)
	run := func() []*dismastd.Dense {
		s := dismastd.NewStream(dismastd.Options{
			Rank: 4, MaxIters: 4, Seed: 3, Workers: 3, Threads: 2,
			Solver: "sampled",
		})
		for _, x := range []*tensor.Tensor{first, grown} {
			if _, err := s.Ingest(x); err != nil {
				t.Fatal(err)
			}
		}
		return s.Factors()
	}
	factorsEqual(t, run(), run(), "world-size replay")
}
