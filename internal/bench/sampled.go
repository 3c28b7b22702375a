package bench

import (
	"fmt"
	"strings"
	"time"

	"dismastd/internal/cp"
	"dismastd/internal/dtd"
	"dismastd/internal/obs"
	"dismastd/internal/sample"
	"dismastd/internal/tensor"
	"dismastd/internal/xrand"
)

// Randomized-solver experiment (extension): the sampled ALS path
// (internal/sample) replaces each exact MTTKRP with a leverage-score
// sketch, making a sweep sublinear in nnz. This runner quantifies the
// trade on the paper's datasets: per-sweep wall time and final
// reconstruction fit for the exact and the sampled solver at the same
// seed, so the fit gap is attributable to sampling alone.

// SampledPoint is one (dataset, solver) sample of the comparison.
type SampledPoint struct {
	Dataset string
	Solver  string
	Samples int // sketch size S; 0 for the exact rows
	NNZ     int
	Iters   int
	Round   time.Duration // per-sweep compute wall, index/compile time excluded
	Fit     float64       // 1 − ‖X − [[A]]‖/‖X‖, evaluated exactly
	Gap     float64       // exact fit − this fit (0 on the exact rows)
}

// SampledGap runs full CP-ALS on each dataset with both solvers and
// reports their per-sweep times and exact reconstruction fits. samples
// is the sketch size S (<= 0 selects sample.DefaultSamples).
func SampledGap(cfg Config, samples int) ([]SampledPoint, error) {
	cfg = cfg.withDefaults()
	if samples <= 0 {
		samples = sample.DefaultSamples
	}
	var points []SampledPoint
	for _, k := range cfg.Datasets {
		t := cfg.generate(k)
		norm := t.Norm()
		var exactFit float64
		for _, solver := range []sample.Kind{sample.Exact, sample.Sampled} {
			o := obs.New()
			st, stats, err := dtd.Init(t, dtd.Options{
				Rank: cfg.Rank, MaxIters: cfg.MaxIters, Tol: 1e-12, Seed: cfg.Seed,
				Threads: cfg.Threads, Solver: solver, Samples: samples, Obs: o,
			})
			if err != nil {
				return nil, fmt.Errorf("sampled %s %v: %w", k, solver, err)
			}
			fit := 1 - cp.LossAgainst(t, st.Factors)/norm
			p := SampledPoint{
				Dataset: k.String(), Solver: solver.String(),
				NNZ: t.NNZ(), Iters: stats.Iters,
				Round: sweepWall(stats.Phases, stats.Iters), Fit: fit,
			}
			if solver == sample.Exact {
				exactFit = fit
			} else {
				p.Samples = samples
				p.Gap = exactFit - fit
			}
			points = append(points, p)
		}
	}
	return points, nil
}

// sweepWall sums the per-sweep compute phases and divides by the sweep
// count. Excluded: planning spans (once-per-step work — complement
// extraction, layout compilation, the sampler's fiber index) and
// ".chunk" spans (nested inside their mttkrp span; adding them would
// double-count). Note obs.AggregatePhases folds "plan/sample-index"
// down to "sample-index" (PhaseOf keeps the part after the last '/'),
// so plan phases are matched by their aggregated names too.
func sweepWall(phases []obs.PhaseStat, iters int) time.Duration {
	planPhases := map[string]bool{
		"sample-index": true, "complement": true, "compile": true, "partition": true, "init": true, "quiet": true,
	}
	var tot time.Duration
	for _, p := range phases {
		if strings.HasPrefix(p.Name, "plan/") || strings.HasSuffix(p.Name, ".chunk") || planPhases[p.Name] {
			continue
		}
		tot += p.Total
	}
	if iters < 1 {
		iters = 1
	}
	return tot / time.Duration(iters)
}

// FormatSampled renders the comparison, pairing each sampled row with
// its exact baseline's speedup.
func FormatSampled(points []SampledPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-8s %8s %10s %8s %14s %10s %10s %9s\n",
		"Dataset", "Solver", "S", "nnz", "iters", "round", "fit", "gap", "speedup")
	exact := map[string]time.Duration{}
	for _, p := range points {
		if p.Samples == 0 {
			exact[p.Dataset] = p.Round
		}
	}
	for _, p := range points {
		speedup := "-"
		if p.Samples != 0 && p.Round > 0 {
			if base, ok := exact[p.Dataset]; ok {
				speedup = fmt.Sprintf("%8.2fx", float64(base)/float64(p.Round))
			}
		}
		fmt.Fprintf(&b, "%-10s %-8s %8d %10d %8d %14s %10.4f %10.4f %9s\n",
			p.Dataset, p.Solver, p.Samples, p.NNZ, p.Iters,
			p.Round.Round(time.Microsecond), p.Fit, p.Gap, speedup)
	}
	return b.String()
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
