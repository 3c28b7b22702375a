package cp

import (
	"errors"
	"math"
	"testing"

	"dismastd/internal/dtd"
	"dismastd/internal/mat"
	"dismastd/internal/tensor"
	"dismastd/internal/xrand"
)

// lowRankTensor synthesises a tensor that is exactly rank r by sampling
// factors and materialising a sparse subset of the Kruskal model's
// entries (every sampled cell keeps its exact low-rank value).
func lowRankTensor(dims []int, r, nnz int, seed uint64) (*tensor.Tensor, []*mat.Dense) {
	src := xrand.New(seed)
	factors := make([]*mat.Dense, len(dims))
	for m, d := range dims {
		factors[m] = mat.RandomUniform(d, r, src)
	}
	b := tensor.NewBuilder(dims)
	idx := make([]int, len(dims))
	for e := 0; e < nnz; e++ {
		for m, d := range dims {
			idx[m] = src.Intn(d)
		}
		b.Append(idx, Reconstruct(factors, idx))
	}
	return b.Build(), factors
}

func denseLowRank(dims []int, r int, seed uint64) *tensor.Tensor {
	src := xrand.New(seed)
	factors := make([]*mat.Dense, len(dims))
	for m, d := range dims {
		factors[m] = mat.RandomUniform(d, r, src)
	}
	b := tensor.NewBuilder(dims)
	var walk func(idx []int, m int)
	walk = func(idx []int, m int) {
		if m == len(dims) {
			b.Append(idx, Reconstruct(factors, idx))
			return
		}
		for i := 0; i < dims[m]; i++ {
			idx[m] = i
			walk(idx, m+1)
		}
	}
	walk(make([]int, len(dims)), 0)
	return b.Build()
}

// The static decomposition below is dtd.Init — CP-ALS as the Eq. (5)
// sweep from an empty prior — held to this package's model: Reconstruct
// plants the tensors, LossAgainst is the definitional loss.

func TestDecomposeRecoversDenseLowRank(t *testing.T) {
	// A fully observed rank-2 tensor must be fit almost perfectly.
	x := denseLowRank([]int{8, 7, 6}, 2, 1)
	_, stats, err := dtd.Init(x, dtd.Options{Rank: 3, MaxIters: 200, Tol: 1e-10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if fit := 1 - stats.Loss/x.Norm(); fit < 0.999 {
		t.Fatalf("fit %v after %d iters, want ≥ 0.999", fit, stats.Iters)
	}
}

func TestLossDecreasesMonotonically(t *testing.T) {
	x := denseLowRank([]int{6, 6, 6}, 3, 2)
	_, stats, err := dtd.Init(x, dtd.Options{Rank: 3, MaxIters: 30, Tol: 0.0, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(stats.LossTrace); i++ {
		if stats.LossTrace[i] > stats.LossTrace[i-1]+1e-8 {
			t.Fatalf("loss increased at sweep %d: %v -> %v", i, stats.LossTrace[i-1], stats.LossTrace[i])
		}
	}
}

func TestReportedLossMatchesDefinition(t *testing.T) {
	x, _ := lowRankTensor([]int{10, 9, 8}, 3, 200, 3)
	st, stats, err := dtd.Init(x, dtd.Options{Rank: 3, MaxIters: 15, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	direct := LossAgainst(x, st.Factors)
	if math.Abs(direct-stats.Loss) > 1e-6*(1+direct) {
		t.Fatalf("reuse loss %v != definitional loss %v", stats.Loss, direct)
	}
}

func TestFourthOrderDecomposition(t *testing.T) {
	x := denseLowRank([]int{5, 4, 4, 3}, 2, 4)
	_, stats, err := dtd.Init(x, dtd.Options{Rank: 2, MaxIters: 300, Tol: 1e-12, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if fit := 1 - stats.Loss/x.Norm(); fit < 0.99 {
		t.Fatalf("4th-order fit %v, want ≥ 0.99", fit)
	}
}

func TestOptionValidation(t *testing.T) {
	x, _ := lowRankTensor([]int{4, 4, 4}, 2, 20, 15)
	if _, _, err := dtd.Init(x, dtd.Options{Rank: 0}); err == nil {
		t.Fatal("rank 0 accepted")
	}
	if _, _, err := dtd.Init(x, dtd.Options{Rank: 2, Tol: -1}); err == nil {
		t.Fatal("negative tolerance accepted")
	}
	empty := tensor.NewBuilder([]int{3, 3}).Build()
	if _, _, err := dtd.Init(empty, dtd.Options{Rank: 2}); !errors.Is(err, dtd.ErrEmptyTensor) {
		t.Fatalf("empty tensor error = %v", err)
	}
}

func TestReconstruct(t *testing.T) {
	a := mat.NewFrom(2, 2, []float64{1, 2, 3, 4})
	b := mat.NewFrom(2, 2, []float64{5, 6, 7, 8})
	// [[A,B]][1,0] = 3*5 + 4*6 = 39
	if got := Reconstruct([]*mat.Dense{a, b}, []int{1, 0}); got != 39 {
		t.Fatalf("Reconstruct = %v", got)
	}
}

func TestReconstructPanicsOnArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Reconstruct([]*mat.Dense{mat.New(2, 2)}, []int{0, 0})
}

func TestDeterministicAcrossRuns(t *testing.T) {
	x, _ := lowRankTensor([]int{9, 8, 7}, 3, 150, 17)
	a, _, err := dtd.Init(x, dtd.Options{Rank: 3, MaxIters: 10, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := dtd.Init(x, dtd.Options{Rank: 3, MaxIters: 10, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	for m := range a.Factors {
		if mat.MaxAbsDiff(a.Factors[m], b.Factors[m]) != 0 {
			t.Fatalf("mode %d factors differ across identical runs", m)
		}
	}
}

func BenchmarkDecomposeSweep(b *testing.B) {
	x, _ := lowRankTensor([]int{500, 500, 100}, 5, 50000, 19)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dtd.Init(x, dtd.Options{Rank: 10, MaxIters: 1, Tol: 1e-12}); err != nil {
			b.Fatal(err)
		}
	}
}
