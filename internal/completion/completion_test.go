package completion

import (
	"math"
	"testing"

	"dismastd/internal/cp"
	"dismastd/internal/dtd"
	"dismastd/internal/mat"
	"dismastd/internal/tensor"
	"dismastd/internal/xrand"
)

// observedSplit samples a rank-r ground-truth model over dims and
// splits distinct cells into train and heldout observation tensors.
func observedSplit(dims []int, r, train, heldout int, seed uint64) (truth []*mat.Dense, trainT, heldT *tensor.Tensor) {
	src := xrand.New(seed)
	truth = make([]*mat.Dense, len(dims))
	for m, d := range dims {
		truth[m] = mat.RandomUniform(d, r, src)
	}
	seen := map[[3]int]bool{}
	draw := func(b *tensor.Builder, count int) {
		idx := make([]int, len(dims))
		for placed := 0; placed < count; {
			for m, d := range dims {
				idx[m] = src.Intn(d)
			}
			key := [3]int{idx[0], idx[1], idx[2]}
			if seen[key] {
				continue
			}
			seen[key] = true
			b.Append(idx, cp.Reconstruct(truth, idx))
			placed++
		}
	}
	tb := tensor.NewBuilder(dims)
	draw(tb, train)
	hb := tensor.NewBuilder(dims)
	draw(hb, heldout)
	return truth, tb.Build(), hb.Build()
}

func TestCompletionRecoversFromPartialObservations(t *testing.T) {
	// 1500 of 12x12x12=1728 cells observed, exactly rank 2: completion
	// must generalise to held-out cells that plain zero-imputed CP-ALS
	// cannot (it is pulled toward zero on the unobserved majority).
	dims := []int{12, 12, 12}
	_, train, held := observedSplit(dims, 2, 600, 150, 1)

	res, err := Decompose(train, Options{Rank: 2, MaxIters: 150, Tol: 1e-10, Lambda: 1e-6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	heldRMSE := RMSE(held, res.Factors)

	cpRes, _, err := dtd.Init(train, dtd.Options{Rank: 2, MaxIters: 150, Tol: 1e-10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cpHeldRMSE := RMSE(held, cpRes.Factors)

	scale := held.Norm() / math.Sqrt(float64(held.NNZ()))
	if heldRMSE > 0.1*scale {
		t.Fatalf("completion held-out RMSE %v too high (scale %v)", heldRMSE, scale)
	}
	if heldRMSE*2 >= cpHeldRMSE {
		t.Fatalf("completion (%v) should clearly beat zero-imputed CP (%v) on held-out cells", heldRMSE, cpHeldRMSE)
	}
}

func TestTrainRMSEDecreases(t *testing.T) {
	_, train, _ := observedSplit([]int{10, 10, 10}, 3, 400, 1, 5)
	res, err := Decompose(train, Options{Rank: 3, MaxIters: 25, Tol: 0, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.RMSETrace); i++ {
		if res.RMSETrace[i] > res.RMSETrace[i-1]*(1+1e-6)+1e-9 {
			t.Fatalf("RMSE rose at sweep %d: %v -> %v", i, res.RMSETrace[i-1], res.RMSETrace[i])
		}
	}
}

func TestLambdaRegularises(t *testing.T) {
	// With very few observations per row, small lambda overfits wildly;
	// larger lambda must keep factor magnitudes bounded.
	_, train, _ := observedSplit([]int{20, 20, 20}, 2, 120, 1, 9)
	strong, err := Decompose(train, Options{Rank: 4, MaxIters: 30, Lambda: 1.0, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for m, f := range strong.Factors {
		if norm := math.Sqrt(mat.Dot(f, f)); math.IsNaN(norm) || norm > 1e3 {
			t.Fatalf("mode %d factor norm %v exploded under strong lambda", m, norm)
		}
	}
}

func TestWarmStartHelps(t *testing.T) {
	_, train, _ := observedSplit([]int{12, 10, 8}, 3, 500, 1, 13)
	cold, err := Decompose(train, Options{Rank: 3, MaxIters: 8, Tol: 0, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	warmInit := make([]*mat.Dense, len(cold.Factors))
	for m, f := range cold.Factors {
		warmInit[m] = f.Clone()
	}
	warm, err := DecomposeFrom(train, warmInit, Options{Rank: 3, MaxIters: 2, Tol: 0, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	if warm.RMSE > cold.RMSE*(1+1e-9) {
		t.Fatalf("warm start worsened RMSE: %v -> %v", cold.RMSE, warm.RMSE)
	}
}

func TestStreamStepTracksGrowingTensor(t *testing.T) {
	// Multi-aspect streaming completion: snapshots grow in every mode;
	// each step warm-starts from the previous factors.
	dims := []int{14, 12, 10}
	_, full, held := observedSplit(dims, 2, 900, 120, 17)
	prefix := full.Prefix([]int{10, 9, 8})
	first, err := Decompose(prefix, Options{Rank: 2, MaxIters: 100, Lambda: 1e-6, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	second, err := StreamStep(first.Factors, full, Options{Rank: 2, MaxIters: 100, Lambda: 1e-6, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	scale := held.Norm() / math.Sqrt(float64(held.NNZ()))
	if got := RMSE(held, second.Factors); got > 0.15*scale {
		t.Fatalf("streaming completion held-out RMSE %v (scale %v)", got, scale)
	}
	for m, d := range dims {
		if second.Factors[m].Rows != d {
			t.Fatalf("mode %d not grown to %d rows", m, d)
		}
	}
}

func TestStreamStepValidation(t *testing.T) {
	dims := []int{6, 6, 6}
	_, full, _ := observedSplit(dims, 2, 60, 1, 23)
	good := []*mat.Dense{mat.New(6, 2), mat.New(6, 2), mat.New(6, 2)}
	if _, err := StreamStep(good[:2], full, Options{Rank: 2}); err == nil {
		t.Fatal("wrong factor count accepted")
	}
	if _, err := StreamStep([]*mat.Dense{mat.New(7, 2), good[1], good[2]}, full, Options{Rank: 2}); err == nil {
		t.Fatal("shrinking mode accepted")
	}
	if _, err := StreamStep([]*mat.Dense{mat.New(6, 3), good[1], good[2]}, full, Options{Rank: 2}); err == nil {
		t.Fatal("rank mismatch accepted")
	}
}

func TestOptionValidation(t *testing.T) {
	_, train, _ := observedSplit([]int{5, 5, 5}, 2, 30, 1, 25)
	for name, o := range map[string]Options{
		"rank 0":          {Rank: 0},
		"negative tol":    {Rank: 2, Tol: -1},
		"negative lambda": {Rank: 2, Lambda: -1},
	} {
		if _, err := Decompose(train, o); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	empty := tensor.NewBuilder([]int{3, 3}).Build()
	if _, err := Decompose(empty, Options{Rank: 2}); err != ErrNoObservations {
		t.Fatalf("empty tensor error = %v", err)
	}
	bad := []*mat.Dense{mat.New(4, 2), mat.New(5, 2), mat.New(5, 2)}
	if _, err := DecomposeFrom(train, bad, Options{Rank: 2}); err == nil {
		t.Fatal("mismatched factors accepted")
	}
}

func TestRMSEEmptyTensor(t *testing.T) {
	empty := tensor.NewBuilder([]int{3, 3}).Build()
	if RMSE(empty, []*mat.Dense{mat.New(3, 2), mat.New(3, 2)}) != 0 {
		t.Fatal("empty RMSE should be 0")
	}
}

func BenchmarkCompletionSweep(b *testing.B) {
	_, train, _ := observedSplit([]int{200, 200, 100}, 5, 40000, 1, 27)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompose(train, Options{Rank: 8, MaxIters: 1, Tol: 0}); err != nil {
			b.Fatal(err)
		}
	}
}
