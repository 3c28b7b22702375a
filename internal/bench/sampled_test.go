package bench

import (
	"fmt"
	"testing"

	"dismastd/internal/cp"
	"dismastd/internal/dtd"
	"dismastd/internal/obs"
	"dismastd/internal/sample"
	"dismastd/internal/tensor"
	"dismastd/internal/xrand"
)

// BenchmarkSampledALS is the sampled-solver acceptance benchmark: full
// CP-ALS over a planted low-rank tensor with nnz ≥ 10^6, once with the
// exact solver and once with the leverage-score sketch at the default
// sample count. Each row reports round_us (per-sweep compute wall,
// index/compile time excluded) and fit (exact reconstruction fit). The
// acceptance bar: the sampled row's round_us at most half the exact
// row's, with its fit within 1e-2 of the exact fit.
func BenchmarkSampledALS(b *testing.B) {
	// d=110, order=3 → nnz = 110³ ≈ 1.33e6.
	t := DenseLowRank(110, 3, 10, 0.01, 42)
	runs := []struct {
		name   string
		solver sample.Kind
	}{
		{"solver=exact", sample.Exact},
		{fmt.Sprintf("solver=sampled/samples=%d", sample.DefaultSamples), sample.Sampled},
	}
	norm := t.Norm()
	for _, rn := range runs {
		b.Run(rn.name, func(b *testing.B) {
			var round, fit float64
			for i := 0; i < b.N; i++ {
				o := obs.New()
				st, stats, err := dtd.Init(t, dtd.Options{
					Rank: 10, MaxIters: 10, Tol: 1e-12, Seed: 42,
					Solver: rn.solver, Obs: o,
				})
				if err != nil {
					b.Fatal(err)
				}
				round = float64(sweepWall(stats.Phases, stats.Iters).Microseconds())
				fit = 1 - cp.LossAgainst(t, st.Factors)/norm
			}
			b.ReportMetric(round, "round_us")
			b.ReportMetric(fit, "fit")
		})
	}
}

// TestSampledGapHarness runs the fit-gap harness at reduced scale on
// every paper dataset and checks the sampled fit lands within the
// harness's tolerance of the exact fit.
func TestSampledGapHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-dataset decomposition sweep")
	}
	cfg := Config{TargetNNZ: 20000, MaxIters: 6, Threads: 1}
	points, err := SampledGap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no points")
	}
	const tol = 5e-2
	for _, p := range points {
		if p.Samples == 0 {
			continue
		}
		if p.Gap > tol {
			t.Errorf("%s: sampled fit %.4f trails exact by %.4f > %.2f", p.Dataset, p.Fit, p.Gap, tol)
		}
	}
	t.Logf("\n%s", FormatSampled(points))
}

// DenseLowRank builds the planted tensor the sampled-ALS acceptance
// benchmark decomposes: a fully enumerated d×d×…×d cube of a random
// rank-`rank` CP model plus Gaussian noise, so nnz = d^order and exact
// CP-ALS at that rank reaches fit ≈ 1. Dense fibers are the sketch's
// favourable regime — every drawn tuple resolves to a full fiber, so
// all S draws contribute to every output row (low per-row variance)
// while duplicate draws keep the matched entry count well below nnz.
func DenseLowRank(d, order, rank int, noise float64, seed uint64) *tensor.Tensor {
	src := xrand.New(seed)
	dims := make([]int, order)
	for m := range dims {
		dims[m] = d
	}
	factors := make([][]float64, order)
	for m := range factors {
		factors[m] = make([]float64, d*rank)
		for i := range factors[m] {
			factors[m][i] = src.Float64()
		}
	}
	b := tensor.NewBuilder(dims)
	idx := make([]int, order)
	prod := make([]float64, rank)
	var rec func(m int)
	rec = func(m int) {
		if m == order {
			v := 0.0
			for _, p := range prod {
				v += p
			}
			b.Append(idx, v+noise*src.NormFloat64())
			return
		}
		outer := make([]float64, rank)
		copy(outer, prod)
		for i := 0; i < d; i++ {
			idx[m] = i
			row := factors[m][i*rank : (i+1)*rank]
			if m == 0 {
				copy(prod, row)
			} else {
				for r := range prod {
					prod[r] = outer[r] * row[r]
				}
			}
			rec(m + 1)
		}
		copy(prod, outer)
	}
	rec(0)
	return b.Build()
}
