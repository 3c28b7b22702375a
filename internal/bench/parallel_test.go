package bench

import (
	"fmt"
	"testing"

	"dismastd/internal/dataset"
	"dismastd/internal/dtd"
	"dismastd/internal/mat"
	"dismastd/internal/mttkrp"
	"dismastd/internal/par"
	"dismastd/internal/xrand"
)

// Thread-scaling suite: the same work at 1..8 compute threads in a
// single process (no cluster in the way), so each row against its
// threads=1 row isolates the intra-worker parallel runtime. Speedups
// track the machine's core
// count; on a single-core box every row stays near 1x by construction.
var benchThreadCounts = []int{1, 2, 4, 8}

// BenchmarkParallelMTTKRP measures one mode-0 MTTKRP over a paper-scale
// dataset — the phase Table II makes the Θ(nnz·R) bottleneck — chunked
// across the pool.
func BenchmarkParallelMTTKRP(b *testing.B) {
	cfg := Config{TargetNNZ: 100000, Rank: 10, Seed: 42}.withDefaults()
	x := cfg.generate(dataset.Book)
	src := xrand.New(7)
	factors := make([]*mat.Dense, x.Order())
	for m, d := range x.Dims {
		factors[m] = mat.RandomUniform(d, cfg.Rank, src)
	}
	view := mttkrp.NewModeView(x, 0)
	dst := mat.New(x.Dims[0], cfg.Rank)
	for _, threads := range benchThreadCounts {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			pool := par.New(threads)
			defer pool.Close()
			wss := mat.NewWorkspaceSet(pool.Threads())
			acc := mttkrp.NewParAccumulator(pool, wss, nil)
			dst.Zero()
			acc.Accumulate(dst, view, factors, "") // warm the workspaces
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst.Zero()
				acc.Accumulate(dst, view, factors, "")
			}
			b.ReportMetric(float64(view.NNZ()), "nnz")
		})
	}
}

// BenchmarkParallelDTDStep measures a full centralized DTD streaming
// step (every Eq. (5) sweep phase: MTTKRP, solves, Gram refreshes,
// loss) at each thread count.
func BenchmarkParallelDTDStep(b *testing.B) {
	cfg := Config{TargetNNZ: 100000, Rank: 10, MaxIters: 5, Seed: 42}.withDefaults()
	t := cfg.generate(dataset.Book)
	seq, err := dataset.Stream(t, []float64{0.8, 1.0})
	if err != nil {
		b.Fatal(err)
	}
	prev, _, err := dtd.Init(seq.Snapshot(0), dtd.Options{Rank: cfg.Rank, MaxIters: 3, Mu: cfg.Mu, Seed: cfg.Seed})
	if err != nil {
		b.Fatal(err)
	}
	snap := seq.Snapshot(1)
	for _, threads := range benchThreadCounts {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			opts := dtd.Options{
				Rank: cfg.Rank, MaxIters: cfg.MaxIters, Tol: 1e-9, Mu: cfg.Mu,
				Seed: cfg.Seed, Threads: threads,
			}
			for i := 0; i < b.N; i++ {
				if _, _, err := dtd.Step(prev, snap, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestParallelBenchFixturesAgree pins the benchmark fixtures themselves:
// the parallel MTTKRP over the bench dataset must match the sequential
// grouped kernel bit for bit at every benchmarked thread count, so the
// speedup table always compares identical computations.
func TestParallelBenchFixturesAgree(t *testing.T) {
	cfg := Config{TargetNNZ: 5000, Rank: 6, Seed: 42}.withDefaults()
	x := cfg.generate(dataset.Book)
	src := xrand.New(7)
	factors := make([]*mat.Dense, x.Order())
	for m, d := range x.Dims {
		factors[m] = mat.RandomUniform(d, cfg.Rank, src)
	}
	view := mttkrp.NewModeView(x, 0)
	want := mat.New(x.Dims[0], cfg.Rank)
	view.AccumulateGroups(want, factors, 0, view.NumRows(), make([]float64, cfg.Rank), make([]float64, cfg.Rank))
	for _, threads := range benchThreadCounts {
		pool := par.New(threads)
		wss := mat.NewWorkspaceSet(pool.Threads())
		acc := mttkrp.NewParAccumulator(pool, wss, nil)
		got := mat.New(x.Dims[0], cfg.Rank)
		acc.Accumulate(got, view, factors, "")
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("threads=%d: element %d = %v, want %v", threads, i, got.Data[i], want.Data[i])
			}
		}
		pool.Close()
	}
}
