package completion

import (
	"math"
	"testing"

	"dismastd/internal/mat"
	"dismastd/internal/partition"
	"dismastd/internal/tensor"
)

func TestDistributedMatchesCentralizedExactly(t *testing.T) {
	// Completion has no cross-row reductions, so the distributed run
	// must reproduce the centralized factors bit for bit.
	_, train, _ := observedSplit([]int{18, 15, 12}, 3, 900, 1, 31)
	opts := Options{Rank: 3, MaxIters: 6, Tol: 0, Lambda: 1e-4, Seed: 33}
	want, err := fitOneRank(train, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []partition.Method{partition.GTPMethod, partition.MTPMethod} {
		for _, workers := range []int{1, 4} {
			got, err := DecomposeDistributed(train, DistributedOptions{
				Options: opts, Workers: workers, Method: method,
			})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", method, workers, err)
			}
			for m := range want.Factors {
				if d := mat.MaxAbsDiff(got.Factors[m], want.Factors[m]); d != 0 {
					t.Fatalf("%v workers=%d mode %d: differs by %v (expected bitwise equality)", method, workers, m, d)
				}
			}
			if math.Abs(got.RMSE-want.RMSE) > 1e-12*(1+want.RMSE) {
				t.Fatalf("%v workers=%d: RMSE %v vs %v", method, workers, got.RMSE, want.RMSE)
			}
			if got.Iters != want.Iters {
				t.Fatalf("%v workers=%d: iters %d vs %d", method, workers, got.Iters, want.Iters)
			}
		}
	}
}

func TestDistributedNoGramTraffic(t *testing.T) {
	// The only traffic is row exchange + scalar RMSE reductions; the
	// per-step volume must not scale with nnz (Theorem-4-like property,
	// even stronger here since there is no MNR² term).
	dims := []int{40, 40, 40}
	_, small, _ := observedSplit(dims, 3, 2000, 1, 35)
	_, big, _ := observedSplit(dims, 3, 8000, 1, 35)
	traffic := func(x *tensor.Tensor) int64 {
		res, err := DecomposeDistributed(x, DistributedOptions{
			Options: Options{Rank: 3, MaxIters: 3, Tol: 0, Seed: 37},
			Workers: 4, Method: partition.MTPMethod,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cluster.TotalBytes()
	}
	ts, tb := traffic(small), traffic(big)
	if ratio := float64(tb) / float64(ts); ratio > 2.5 {
		t.Fatalf("4x observations grew traffic %.2fx", ratio)
	}
}

func TestDistributedRecovers(t *testing.T) {
	_, train, held := observedSplit([]int{14, 14, 14}, 2, 900, 150, 39)
	res, err := DecomposeDistributed(train, DistributedOptions{
		Options: Options{Rank: 2, MaxIters: 120, Lambda: 1e-6, Seed: 41},
		Workers: 3, Method: partition.GTPMethod,
	})
	if err != nil {
		t.Fatal(err)
	}
	scale := held.Norm() / math.Sqrt(float64(held.NNZ()))
	if got := RMSE(held, res.Factors); got > 0.1*scale {
		t.Fatalf("distributed completion held-out RMSE %v (scale %v)", got, scale)
	}
}

func TestDistributedValidation(t *testing.T) {
	_, train, _ := observedSplit([]int{6, 6, 6}, 2, 50, 1, 43)
	if _, err := DecomposeDistributed(train, DistributedOptions{Options: Options{Rank: 2}, Workers: 0}); err == nil {
		t.Fatal("zero workers accepted")
	}
	if _, err := DecomposeDistributed(train, DistributedOptions{Options: Options{Rank: 0}, Workers: 2}); err == nil {
		t.Fatal("rank 0 accepted")
	}
	empty := tensor.NewBuilder([]int{3, 3}).Build()
	if _, err := DecomposeDistributed(empty, DistributedOptions{Options: Options{Rank: 2}, Workers: 2}); err == nil {
		t.Fatal("empty tensor accepted")
	}
}

// TestStreamStepRunsOnWorkers: a streaming step runs on the cluster
// shape it is given — three ranks, each sending its updated rows — and,
// with no cross-row reductions, reproduces the one-rank step bit for bit.
func TestStreamStepRunsOnWorkers(t *testing.T) {
	dims := []int{14, 12, 10}
	_, full, _ := observedSplit(dims, 2, 900, 1, 43)
	first, err := fitOneRank(full.Prefix([]int{10, 9, 8}), Options{Rank: 2, MaxIters: 5, Seed: 45})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Rank: 2, MaxIters: 5, Tol: 0, Seed: 47}
	one, err := StreamStep(first.Factors, full, DistributedOptions{Options: opts, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	three, err := StreamStep(first.Factors, full, DistributedOptions{Options: opts, Workers: 3, Method: partition.MTPMethod})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(three.Cluster.Ranks); n != 3 {
		t.Fatalf("step ran on %d ranks, want 3", n)
	}
	for r, rk := range three.Cluster.Ranks {
		if rk.Metrics.BytesSent == 0 {
			t.Fatalf("rank %d sent nothing", r)
		}
	}
	for m := range one.Factors {
		if d := mat.MaxAbsDiff(three.Factors[m], one.Factors[m]); d != 0 {
			t.Fatalf("mode %d: three ranks differ from one by %v", m, d)
		}
	}
}
