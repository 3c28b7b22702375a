package goldens

import (
	"fmt"
	"math"
	"testing"

	"dismastd/internal/cp"
	"dismastd/internal/dmsmg"
	"dismastd/internal/dtd"
	"dismastd/internal/mat"
	"dismastd/internal/mttkrp"
	"dismastd/internal/partition"
	"dismastd/internal/tensor"
	"dismastd/internal/xrand"
)

// referenceALS is textbook CP-ALS written without any of the engine's
// machinery — fresh Grams, the flat COO MTTKRP, one ridge solve per
// mode, a fixed sweep count, the definitional loss — from the same
// seeded start the engines draw. It is the independent oracle the
// static bindings of dtd.Sweep are held to, and lives only here.
func referenceALS(x *tensor.Tensor, rank, sweeps int, seed uint64) ([]*mat.Dense, float64) {
	src := xrand.New(seed)
	factors := make([]*mat.Dense, x.Order())
	for m, d := range x.Dims {
		factors[m] = mat.RandomUniform(d, rank, src)
	}
	ws := mat.NewWorkspace()
	for it := 0; it < sweeps; it++ {
		for m := range factors {
			var others []*mat.Dense
			for k, f := range factors {
				if k != m {
					others = append(others, mat.Gram(f))
				}
			}
			mat.SolveRightRidgeInto(factors[m], mttkrp.Compute(x, factors, m), mat.HadamardAll(others...), ws)
		}
	}
	return factors, cp.LossAgainst(x, factors)
}

// TestStaticBindingsMatchReference holds both static entry points —
// dtd.Init (world of one) and dmsmg.Decompose (one rank of M) — to the
// reference, on orders 3 and 4, with and without slices no entry names.
// A row with no entry must come out exactly +0.
func TestStaticBindingsMatchReference(t *testing.T) {
	for _, in := range []struct {
		name         string
		x            *tensor.Tensor
		rank, sweeps int
		seed         uint64
	}{
		{"order3", sparseRandom([]int{20, 18, 15}, 1000, 1), 4, 6, 7},
		{"order3/empty-slices", sparseRandom([]int{30, 25, 20}, 60, 9), 3, 5, 103},
		{"order4", sparseRandom([]int{8, 7, 6, 5}, 900, 11), 3, 5, 13},
		{"order4/empty-slices", sparseRandom([]int{16, 14, 12, 10}, 50, 15), 2, 5, 17},
	} {
		want, wantLoss := referenceALS(in.x, in.rank, in.sweeps, in.seed)
		check := func(t *testing.T, tol float64, got []*mat.Dense, loss float64, iters int) {
			t.Helper()
			if iters != in.sweeps {
				t.Fatalf("%d sweeps, reference ran %d", iters, in.sweeps)
			}
			var scale float64
			for _, f := range want {
				for _, v := range f.Data {
					scale = math.Max(scale, math.Abs(v))
				}
			}
			for m := range want {
				if d := mat.MaxAbsDiff(got[m], want[m]); d > tol*scale {
					t.Fatalf("mode %d differs from the reference by %v", m, d)
				}
				for i, nnz := range in.x.SliceNNZ(m) {
					for _, v := range got[m].Row(i) {
						if nnz == 0 && math.Float64bits(v) != 0 {
							t.Fatalf("mode %d row %d has no entry but holds %v, want +0", m, i, v)
						}
					}
				}
			}
			if math.Abs(loss-wantLoss) > 1e-8*(1+wantLoss) {
				t.Fatalf("loss %v, reference %v", loss, wantLoss)
			}
		}
		// A Tol no sweep can meet: the reference runs a fixed count.
		const tol = 1e-300
		t.Run(in.name+"/dtd.Init", func(t *testing.T) {
			st, stats, err := dtd.Init(in.x, dtd.Options{Rank: in.rank, MaxIters: in.sweeps, Tol: tol, Seed: in.seed})
			if err != nil {
				t.Fatal(err)
			}
			check(t, 1e-9, st.Factors, stats.Loss, stats.Iters)
		})
		for _, workers := range []int{1, 3} {
			for _, method := range []partition.Method{partition.GTPMethod, partition.MTPMethod} {
				t.Run(fmt.Sprintf("%s/dmsmg/workers=%d/%v", in.name, workers, method), func(t *testing.T) {
					got, stats, err := dmsmg.Decompose(in.x, dmsmg.Options{
						Rank: in.rank, MaxIters: in.sweeps, Tol: tol, Seed: in.seed, Workers: workers, Method: method,
					})
					if err != nil {
						t.Fatal(err)
					}
					check(t, 1e-8, got, stats.Loss, stats.Iters)
				})
			}
		}
	}
}

// TestDMSMGWireIsOneGramBlock pins what keeps the baseline's traffic the
// baseline's: with no old row in any mode, each Gram all-reduce carries
// the A¹ᵀA¹ block alone — 8·R² bytes, not the dynamic step's 3R² batch.
func TestDMSMGWireIsOneGramBlock(t *testing.T) {
	const rank = 3
	x := sparseRandom([]int{12, 10, 8}, 500, 3)
	_, stats, err := dmsmg.Decompose(x, dmsmg.Options{Rank: rank, MaxIters: 5, Seed: 7, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Cluster.TotalBytes(); got != 15230 {
		t.Errorf("wire bytes %d, want 15230", got)
	}
	// One all-reduce per mode to establish the Grams, one per mode per sweep.
	reduces := int64(x.Order() * (1 + stats.Iters))
	for r, rk := range stats.Cluster.Ranks {
		if got := rk.Obs.Metrics.Counters["allreduce.bytes"]; got != reduces*8*rank*rank {
			t.Errorf("rank %d all-reduced %d bytes in %d calls, want %d each", r, got, reduces, 8*rank*rank)
		}
	}
}

// TestStaticBindingsShareOneStopRule: the loop exists once, so the three
// ways into it stop at the same sweep — before MaxIters — on the same
// input and Tol, with bit-identical loss traces.
func TestStaticBindingsShareOneStopRule(t *testing.T) {
	x := sparseRandom([]int{12, 10, 8}, 500, 3)
	opts := dtd.Options{Rank: 3, MaxIters: 200, Tol: 1e-4, Seed: 7}
	_, initStats, err := dtd.Init(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, stepStats, err := dtd.Step(dtd.EmptyState(x.Order(), opts.Rank), x, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, mgStats, err := dmsmg.Decompose(x, dmsmg.Options{Rank: opts.Rank, MaxIters: opts.MaxIters, Tol: opts.Tol, Seed: opts.Seed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if initStats.Iters >= opts.MaxIters {
		t.Fatalf("Tol %v never fired in %d sweeps; the fixture pins nothing", opts.Tol, opts.MaxIters)
	}
	for name, trace := range map[string][]float64{"dtd.Step(EmptyState)": stepStats.LossTrace, "dmsmg.Decompose": mgStats.LossTrace} {
		if len(trace) != initStats.Iters {
			t.Fatalf("%s stopped after %d sweeps, dtd.Init after %d", name, len(trace), initStats.Iters)
		}
		for i, l := range initStats.LossTrace {
			if math.Float64bits(trace[i]) != math.Float64bits(l) {
				t.Fatalf("%s sweep %d: loss %v vs dtd.Init %v", name, i, trace[i], l)
			}
		}
	}
}
