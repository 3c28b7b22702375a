package dmsmg

import (
	"math"
	"testing"

	"dismastd/internal/cp"
	"dismastd/internal/dtd"
	"dismastd/internal/mat"
	"dismastd/internal/partition"
	"dismastd/internal/tensor"
	"dismastd/internal/xrand"
)

func sparseRandom(dims []int, nnz int, seed uint64) *tensor.Tensor {
	src := xrand.New(seed)
	b := tensor.NewBuilder(dims)
	idx := make([]int, len(dims))
	for e := 0; e < nnz; e++ {
		for m, d := range dims {
			idx[m] = src.Intn(d)
		}
		b.Append(idx, src.Float64()+0.5)
	}
	return b.Build()
}

func relDiff(a, b []*mat.Dense) float64 {
	var maxDiff, maxMag float64
	for m := range a {
		if d := mat.MaxAbsDiff(a[m], b[m]); d > maxDiff {
			maxDiff = d
		}
		for _, v := range a[m].Data {
			if av := math.Abs(v); av > maxMag {
				maxMag = av
			}
		}
	}
	return maxDiff / math.Max(maxMag, 1e-12)
}

func TestMatchesCentralizedCP(t *testing.T) {
	// The centralized static path is dtd.Init — the same engine bound as
	// a world of one; internal/goldens holds both to an independent dense
	// reference.
	x := sparseRandom([]int{20, 18, 15}, 1000, 1)
	want, wantStats, err := dtd.Init(x, dtd.Options{Rank: 4, MaxIters: 6, Tol: 0, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []partition.Method{partition.GTPMethod, partition.MTPMethod} {
		for _, workers := range []int{1, 3} {
			got, stats, err := Decompose(x, Options{Rank: 4, MaxIters: 6, Tol: 0, Seed: 7, Workers: workers, Method: method})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", method, workers, err)
			}
			if d := relDiff(got, want.Factors); d > 1e-8 {
				t.Fatalf("%v workers=%d: factors differ from CP by %v", method, workers, d)
			}
			if math.Abs(stats.Loss-wantStats.Loss) > 1e-8*(1+wantStats.Loss) {
				t.Fatalf("%v workers=%d: loss %v vs CP %v", method, workers, stats.Loss, wantStats.Loss)
			}
			if stats.Iters != wantStats.Iters {
				t.Fatalf("%v workers=%d: %d iters vs CP %d", method, workers, stats.Iters, wantStats.Iters)
			}
		}
	}
}

func TestFitImprovesOnLowRankData(t *testing.T) {
	// Build a fully observed rank-2 tensor: every cell holds the
	// Kruskal model value, so a rank-3 fit should be near-perfect.
	src := xrand.New(3)
	dims := []int{15, 12, 10}
	factors := []*mat.Dense{
		mat.RandomUniform(dims[0], 2, src),
		mat.RandomUniform(dims[1], 2, src),
		mat.RandomUniform(dims[2], 2, src),
	}
	b := tensor.NewBuilder(dims)
	idx := make([]int, 3)
	for i := 0; i < dims[0]; i++ {
		for j := 0; j < dims[1]; j++ {
			for k := 0; k < dims[2]; k++ {
				idx[0], idx[1], idx[2] = i, j, k
				b.Append(idx, cp.Reconstruct(factors, idx))
			}
		}
	}
	x := b.Build()
	_, stats, err := Decompose(x, Options{Rank: 3, MaxIters: 60, Tol: 1e-10, Workers: 3, Method: partition.MTPMethod, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Fit < 0.95 {
		t.Fatalf("fit %v on rank-2 data", stats.Fit)
	}
}

func TestWorkScalesWithNNZ(t *testing.T) {
	// The baseline's per-iteration work tracks the full tensor size —
	// the property that makes it lose to DisMASTD in Fig. 5.
	dims := []int{40, 40, 40}
	small := sparseRandom(dims, 2000, 9)
	big := sparseRandom(dims, 8000, 11)
	work := func(x *tensor.Tensor) float64 {
		_, stats, err := Decompose(x, Options{Rank: 4, MaxIters: 3, Tol: 0, Workers: 4, Method: partition.MTPMethod, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		return stats.Cluster.TotalWork()
	}
	ws, wb := work(small), work(big)
	if wb < 2.5*ws {
		t.Fatalf("4x nnz grew work only %.2fx; static baseline must scale with nnz", wb/ws)
	}
}

func TestValidation(t *testing.T) {
	x := sparseRandom([]int{5, 5, 5}, 30, 15)
	for name, opts := range map[string]Options{
		"rank 0":     {Rank: 0, Workers: 2},
		"no workers": {Rank: 2, Workers: 0},
		"bad tol":    {Rank: 2, Workers: 2, Tol: -1},
	} {
		if _, _, err := Decompose(x, opts); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	empty := tensor.NewBuilder([]int{3, 3}).Build()
	if _, _, err := Decompose(empty, Options{Rank: 2, Workers: 2}); err != ErrEmptyTensor {
		t.Fatalf("empty tensor error = %v", err)
	}
}

func TestStatsPopulated(t *testing.T) {
	x := sparseRandom([]int{25, 20, 15}, 900, 17)
	_, stats, err := Decompose(x, Options{Rank: 3, MaxIters: 2, Workers: 3, Method: partition.GTPMethod, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if stats.NNZ != x.NNZ() {
		t.Fatalf("NNZ = %d", stats.NNZ)
	}
	if len(stats.Imbalance) != 3 || stats.SetupBytes <= 0 || stats.Cluster == nil {
		t.Fatalf("stats incomplete: %+v", stats)
	}
	if len(stats.LossTrace) != stats.Iters {
		t.Fatalf("%d trace entries for %d iters", len(stats.LossTrace), stats.Iters)
	}
}
