package dtd

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"dismastd/internal/cluster"
	"dismastd/internal/dataset"
	"dismastd/internal/dplan"
	"dismastd/internal/layout"
	"dismastd/internal/mat"
	"dismastd/internal/mttkrp"
	"dismastd/internal/obs"
	"dismastd/internal/partition"
	"dismastd/internal/tensor"
	"dismastd/internal/xrand"
)

// The tests in this file hold the live/quiet split of the sweep to an
// oracle that is not a second code path: the same engine bound with
// every owned row declared live (allLive below — the data choice the
// sampled solver makes), which solves and Grams every row every sweep
// exactly as the engine did before quiet rows existed.

// bookStep returns one Book-shaped 75 % → 80 % growth step of the given
// order: long thin reviewer and product modes under heavy Zipf skew, so
// the complement names a small minority of the old rows.
func bookStep(t *testing.T, order int) (*State, *tensor.Tensor) {
	t.Helper()
	return bookStepRank(t, order, 4)
}

// bookStepRank is bookStep with a prior of the given rank.
func bookStepRank(t *testing.T, order, rank int) (*State, *tensor.Tensor) {
	t.Helper()
	spec := dataset.Spec{Name: "book", Dims: []int{1200, 300, 24}, NNZ: 3000, Skew: []float64{1.1, 1.05, 0.6}, Rating: true, Seed: 7}
	if order == 4 {
		spec.Dims = []int{1000, 250, 16, 6}
		spec.NNZ = 2000
		spec.Skew = []float64{1.1, 1.05, 0.6, 0}
	}
	seq, err := dataset.Stream(spec.Generate(), []float64{0.75, 0.80, 1})
	if err != nil {
		t.Fatal(err)
	}
	prev, _, err := Init(seq.Snapshot(0), Options{Rank: rank, MaxIters: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return prev, seq.Snapshot(1)
}

// clusterComm is the distributed Comm over an in-process cluster
// worker: what internal/core binds, without its ablations.
type clusterComm struct {
	w    *cluster.Worker
	exch *dplan.Exchanger
}

func (c clusterComm) AllReduceSumInPlace(vec []float64) error { return c.w.AllReduceSumInPlace(vec) }
func (c clusterComm) ReduceScalarSum(x float64) (float64, error) {
	return c.w.ReduceScalarSum(x)
}
func (c clusterComm) PostRows(mode int, factor *mat.Dense) error {
	return c.exch.Post(mode, factor, false)
}
func (c clusterComm) CollectRows(mode int, factor *mat.Dense) error {
	return c.exch.Collect(mode, factor, false)
}

// boundRun is what one run of a step on an in-process cluster leaves:
// the factors assembled from each row's owner, rank 0's loss trace, and
// the row counts and counters summed over ranks.
type boundRun struct {
	factors   []*mat.Dense
	trace     []float64
	live      int   // live rows, all modes and ranks
	quietOld  int   // quiet old rows
	quiet     int   // quiet rows, old and growth
	oldRows   int   // owned old rows
	solved    int64 // solve.rows
	implicit  int64 // solve.rows.implicit
	spanNames map[string]bool
}

// allLive is the oracle's binding: no mode names any row quiet.
func allLive(n int) [][]bool { return make([][]bool, n) }

// bindRank binds rank w of the plan the way internal/core does — from
// nil factors, so the engine is cold; with oracle set every owned row is
// declared live.
func bindRank(s *Sweep, plan *dplan.Plan, w *cluster.Worker, oracle bool, o *obs.Obs) *Sweep {
	n := plan.Tensor.Order()
	me := w.Rank()
	kernels := make([]mttkrp.Kernel, n)
	owned := make([][]int32, n)
	for m := range kernels {
		kernels[m] = mttkrp.NewKernelOf(plan.Tensor, m, plan.EntryLists[me][m], layout.Compiled)
		owned[m] = plan.OwnedSlices[m][me]
	}
	comm := clusterComm{w: w, exch: dplan.NewExchanger(w, plan)}
	if oracle {
		return s.bind(nil, kernels, owned, allLive(n), nil, comm, o)
	}
	return s.Bind(nil, kernels, owned, nil, comm, o)
}

// runStep runs the step once per rank on a fresh in-process cluster.
func runStep(t *testing.T, s *Sweep, workers int, method partition.Method, oracle bool) boundRun {
	t.Helper()
	plan := dplan.Build(s.Complement(), workers, workers, method)
	n := plan.Tensor.Order()
	engines := make([]*Sweep, workers)
	bundles := make([]*obs.Obs, workers)
	if _, err := cluster.NewLocal(workers).Run(func(w *cluster.Worker) error {
		o := obs.New()
		eng := bindRank(s, plan, w, oracle, o)
		defer eng.Close()
		engines[w.Rank()], bundles[w.Rank()] = eng, o
		return eng.Run(nil)
	}); err != nil {
		t.Fatal(err)
	}
	out := boundRun{factors: make([]*mat.Dense, n), trace: engines[0].LossTrace(), spanNames: map[string]bool{}}
	for m := 0; m < n; m++ {
		out.factors[m] = mat.New(s.newDims[m], s.opts.Rank)
	}
	for rank, eng := range engines {
		for m := 0; m < n; m++ {
			for _, row := range plan.OwnedSlices[m][rank] {
				copy(out.factors[m].Row(int(row)), eng.Factors()[m].Row(int(row)))
			}
			q := &eng.quiet[m]
			out.live += len(eng.live[m])
			out.quietOld += len(q.old)
			out.quiet += len(q.old) + len(q.grown)
			out.oldRows += len(eng.liveOld[m]) + len(q.old)
		}
		out.solved += bundles[rank].Counter("solve.rows").Value()
		out.implicit += bundles[rank].Counter("solve.rows.implicit").Value()
		for _, ps := range bundles[rank].Trace.Phases() {
			out.spanNames[ps.Name] = true
		}
	}
	return out
}

// relToMax returns max|a−b| relative to b's largest entry.
func relToMax(a, b *mat.Dense) float64 {
	var maxMag float64
	for _, v := range b.Data {
		maxMag = math.Max(maxMag, math.Abs(v))
	}
	return mat.MaxAbsDiff(a, b) / math.Max(maxMag, 1e-300)
}

func requireFactorsClose(t *testing.T, what string, got, want []*mat.Dense, tol float64) {
	t.Helper()
	for m := range want {
		if d := relToMax(got[m], want[m]); !(d <= tol) {
			t.Fatalf("%s: factor %d differs from the oracle by %.3g of its largest entry, want <= %g", what, m, d, tol)
		}
	}
}

func requireTracesClose(t *testing.T, what string, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d sweeps vs the oracle's %d", what, len(got), len(want))
	}
	for i := range want {
		if d := math.Abs(got[i]-want[i]) / math.Max(math.Abs(want[i]), 1e-300); !(d <= tol) {
			t.Fatalf("%s: loss[%d] %v vs oracle %v (rel %.3g)", what, i, got[i], want[i], d)
		}
	}
}

func requireBitwise(t *testing.T, what string, a, b boundRun) {
	t.Helper()
	for m := range a.factors {
		for i, v := range a.factors[m].Data {
			if math.Float64bits(v) != math.Float64bits(b.factors[m].Data[i]) {
				t.Fatalf("%s: factor %d element %d differs: %v vs %v", what, m, i, v, b.factors[m].Data[i])
			}
		}
	}
	for i, v := range a.trace {
		if math.Float64bits(v) != math.Float64bits(b.trace[i]) {
			t.Fatalf("%s: loss[%d] differs: %v vs %v", what, i, v, b.trace[i])
		}
	}
}

// TestQuietRowsMatchExplicitOracle is the equivalence and the work
// guard at once: on steps where at least four old rows in five are
// quiet, factors, loss trace and the reported loss agree with the
// all-rows-live binding and with the definitional Eq. (4); results do
// not depend on the thread count; and solve.rows is exactly sweeps ×
// live rows — it fails the moment anything walks a quiet row per sweep.
func TestQuietRowsMatchExplicitOracle(t *testing.T) {
	const sweeps = 6
	for _, order := range []int{3, 4} {
		prev, snap := bookStep(t, order)
		for _, method := range []partition.Method{partition.GTPMethod, partition.MTPMethod} {
			for _, workers := range []int{1, 2, 3} {
				var byThreads []boundRun
				for _, threads := range []int{1, 2} {
					name := fmt.Sprintf("order=%d/%v/workers=%d/threads=%d", order, method, workers, threads)
					opts := Options{Rank: 4, MaxIters: sweeps, Tol: 1e-300, Mu: 0.8, Seed: 5, Threads: threads}
					s, err := NewSweep(prev, snap, opts)
					if err != nil {
						t.Fatal(err)
					}
					got := runStep(t, s, workers, method, false)
					want := runStep(t, s, workers, method, true)

					if want.quiet != 0 || want.implicit != 0 {
						t.Fatalf("%s: the oracle has %d quiet rows, wrote out %d", name, want.quiet, want.implicit)
					}
					if 5*got.quietOld < 4*got.oldRows {
						t.Fatalf("%s: only %d of %d old rows are quiet; the input no longer tests the quiet path", name, got.quietOld, got.oldRows)
					}
					requireFactorsClose(t, name, got.factors, want.factors, 1e-10)
					requireTracesClose(t, name, got.trace, want.trace, 1e-12)
					cur := &State{Dims: snap.Dims, Factors: got.factors}
					direct := LossAgainst(prev, snap, cur, opts.Mu)
					if last := got.trace[len(got.trace)-1]; math.Abs(last-direct) > 1e-9*direct {
						t.Fatalf("%s: reported loss %v, Eq. (4) recomputed %v", name, last, direct)
					}
					if got.solved != int64(sweeps*got.live) {
						t.Fatalf("%s: solve.rows %d, want %d sweeps × %d live rows", name, got.solved, sweeps, got.live)
					}
					if got.implicit != int64(got.quiet) {
						t.Fatalf("%s: solve.rows.implicit %d, want the %d quiet rows once", name, got.implicit, got.quiet)
					}
					if want.solved != int64(sweeps*(got.live+got.quiet)) {
						t.Fatalf("%s: oracle solve.rows %d, want %d sweeps × every owned row", name, want.solved, sweeps)
					}
					for _, span := range []string{"plan/quiet", "materialize"} {
						if !got.spanNames[span] || want.spanNames[span] {
							t.Fatalf("%s: span %q recorded by change=%v oracle=%v, want true/false", name, span, got.spanNames[span], want.spanNames[span])
						}
					}
					byThreads = append(byThreads, got)
				}
				requireBitwise(t, fmt.Sprintf("order=%d/%v/workers=%d: threads 1 vs 2", order, method, workers), byThreads[0], byThreads[1])
			}
		}
	}
}

// flakyComm is the world of one with one scripted failure: blocking call
// number failAt (counted over the all-reduce, the row collect and the
// scalar reduce; a post waits for no one and cannot fail here) returns
// errInjected.
type flakyComm struct {
	solo
	calls, failAt int
}

var errInjected = errors.New("injected comm failure")

func (c *flakyComm) tick() error {
	c.calls++
	if c.calls == c.failAt {
		return errInjected
	}
	return nil
}

func (c *flakyComm) AllReduceSumInPlace([]float64) error { return c.tick() }
func (c *flakyComm) PostRows(int, *mat.Dense) error      { return nil }
func (c *flakyComm) CollectRows(int, *mat.Dense) error   { return c.tick() }
func (c *flakyComm) ReduceScalarSum(x float64) (float64, error) {
	return x, c.tick()
}

// worldBinding returns what binds every row of the step to one rank:
// whole-complement kernels and every row owned.
func worldBinding(s *Sweep) ([]mttkrp.Kernel, [][]int32) {
	return worldBindingOf(s, layout.Compiled)
}

// worldBindingOf is worldBinding over the given kernel representation.
func worldBindingOf(s *Sweep, kind layout.Kind) ([]mttkrp.Kernel, [][]int32) {
	n := len(s.newDims)
	kernels := make([]mttkrp.Kernel, n)
	owned := make([][]int32, n)
	for m := range kernels {
		kernels[m] = mttkrp.NewKernel(s.comp, m, kind)
		owned[m] = make([]int32, s.newDims[m])
		for i := range owned[m] {
			owned[m][i] = int32(i)
		}
	}
	return kernels, owned
}

// bindWorld binds every row to one rank over comm — from factors, or
// cold from nil — quiet rows split out or, oracle, all live.
func bindWorld(s *Sweep, factors []*mat.Dense, comm Comm, oracle bool) *Sweep {
	kernels, owned := worldBinding(s)
	if oracle {
		return s.bind(factors, kernels, owned, allLive(len(owned)), nil, comm, nil)
	}
	return s.Bind(factors, kernels, owned, nil, comm, nil)
}

// TestAbortedRunLeavesOrdinaryFactors pins the write-out contract: a
// Run stopped by the before hook, or by a Comm error in the middle of a
// sweep, returns with every quiet row equal to Ã[i]·T of its mode's
// last completed solve — which is what the all-live oracle, stopped at
// the same point, solved those rows to — and the engine runs again from
// there (the elastic warm restart), still in step with the oracle.
func TestAbortedRunLeavesOrdinaryFactors(t *testing.T) {
	prev, snap := bookStep(t, 3)
	n := snap.Order()
	errHook := errors.New("stop")
	for _, tc := range []struct {
		name   string
		failAt int // collective to fail, 0 = none
		stopAt int // sweep the before hook stops at, -1 = never
		want   error
	}{
		{"before-hook at sweep 2", 0, 2, errHook},
		// n all-reduces establish the Grams; a sweep makes 2n+1 calls. This
		// one is mode 1's all-reduce of sweep 1: mode 0 and 1 are solved for
		// the second time, mode 2 once.
		{"comm error mid-sweep", n + (2*n + 1) + 3, -1, errInjected},
		// Mode 0's very first all-reduce after a solve: modes 1 and 2 are
		// still explicit and must be left alone.
		{"comm error in the first sweep", n + 1, -1, errInjected},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSweep(prev, snap, Options{Rank: 4, MaxIters: 5, Tol: 1e-300, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			before := func(sweep int) error {
				if sweep == tc.stopAt {
					return errHook
				}
				return nil
			}
			var engines [2]*Sweep
			for i, oracle := range []bool{false, true} {
				eng := bindWorld(s, nil, &flakyComm{failAt: tc.failAt}, oracle)
				defer eng.Close()
				if err := eng.Run(before); !errors.Is(err, tc.want) {
					t.Fatalf("oracle=%v: Run returned %v, want %v", oracle, err, tc.want)
				}
				engines[i] = eng
			}
			got, want := engines[0], engines[1]
			if got.quiet[0].implicit || len(got.quiet[0].old) == 0 {
				t.Fatalf("mode 0 after the abort: implicit=%v with %d quiet old rows", got.quiet[0].implicit, len(got.quiet[0].old))
			}
			requireFactorsClose(t, "after the abort", got.Factors(), want.Factors(), 1e-10)

			for _, eng := range engines {
				if err := eng.Run(nil); err != nil {
					t.Fatal(err)
				}
			}
			requireFactorsClose(t, "after the warm re-Run", got.Factors(), want.Factors(), 1e-10)
			requireTracesClose(t, "after the warm re-Run", got.LossTrace(), want.LossTrace(), 1e-12)
		})
	}
}

// TestQuietRowsDegenerateInputs drives the split through its edges and
// holds each to the oracle.
func TestQuietRowsDegenerateInputs(t *testing.T) {
	full := sparseRandom([]int{40, 30, 6}, 500, 21)

	t.Run("empty complement", func(t *testing.T) {
		// The snapshot is the previous one again: no mode grew, no entry
		// arrived, every row of every mode is a quiet old row — and Ã is the
		// fixed point, so the loss is round-off and only factors compare.
		prev, _, err := Init(full, Options{Rank: 3, MaxIters: 4, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSweep(prev, full, Options{Rank: 3, MaxIters: 4, Tol: 1e-300, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		got := runStep(t, s, 2, partition.MTPMethod, false)
		want := runStep(t, s, 2, partition.MTPMethod, true)
		if got.live != 0 || got.solved != 0 || got.quietOld != 40+30+6 {
			t.Fatalf("live %d, solve.rows %d, quiet old %d; want 0, 0, every row", got.live, got.solved, got.quietOld)
		}
		requireFactorsClose(t, "empty complement", got.factors, want.factors, 1e-10)
		requireFactorsClose(t, "empty complement vs Ã", got.factors, prev.Factors, 1e-10)
	})

	t.Run("rank with no entries", func(t *testing.T) {
		// One arriving entry on three ranks: at most one rank per mode has
		// anything to solve, the others own rows and no entries.
		oldDims := []int{36, 27, 5}
		b := tensor.NewBuilder(full.Dims)
		old := full.Prefix(oldDims)
		idx := make([]int, 3)
		for e := 0; e < old.NNZ(); e++ {
			for m := range idx {
				idx[m] = int(old.Coords[e*3+m])
			}
			b.Append(idx, old.Vals[e])
		}
		b.Append([]int{38, 3, 2}, 4)
		snap := b.Build()
		prev, _, err := Init(old, Options{Rank: 3, MaxIters: 4, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSweep(prev, snap, Options{Rank: 3, MaxIters: 4, Tol: 1e-300, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if s.Complement().NNZ() != 1 {
			t.Fatalf("complement has %d entries, want 1", s.Complement().NNZ())
		}
		got := runStep(t, s, 3, partition.MTPMethod, false)
		want := runStep(t, s, 3, partition.MTPMethod, true)
		if got.live != 3 {
			t.Fatalf("%d live rows, want one per mode", got.live)
		}
		requireFactorsClose(t, "rank with no entries", got.factors, want.factors, 1e-10)
		requireTracesClose(t, "rank with no entries", got.trace, want.trace, 1e-12)
	})

	t.Run("ridge-regularised D0", func(t *testing.T) {
		// Every previous factor has an all-zero last column and only mode 0
		// grows, so the column stays zero through every solve and D₀ has an
		// exactly zero pivot each time: the ridge fallback factors it. Modes
		// 1 and 2 then hold live and quiet old rows side by side, and T must
		// come from the same regularised factor the live rows are solved
		// against — an unregularised T would be NaN.
		oldDims := []int{32, 30, 20}
		src := xrand.New(33)
		prev := &State{Dims: oldDims}
		for _, d := range oldDims {
			f := mat.RandomUniform(d, 3, src)
			for i := 0; i < d; i++ {
				f.Set(i, 2, 0)
			}
			prev.Factors = append(prev.Factors, f)
		}
		b := tensor.NewBuilder([]int{40, 30, 20})
		for e := 0; e < 12; e++ {
			b.Append([]int{32 + src.Intn(8), src.Intn(15), src.Intn(10)}, 1+src.Float64())
		}
		snap := b.Build()
		s, err := NewSweep(prev, snap, Options{Rank: 3, MaxIters: 4, Tol: 1e-300, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		var engines [2]*Sweep
		for i, oracle := range []bool{false, true} {
			eng := bindWorld(s, nil, nil, oracle)
			defer eng.Close()
			if err := eng.Run(nil); err != nil {
				t.Fatal(err)
			}
			engines[i] = eng
		}
		got, want := engines[0], engines[1]
		if err := mat.CholeskyInto(mat.New(3, 3), got.d0); !errors.Is(err, mat.ErrNotSPD) {
			t.Fatalf("D0 factors without the ridge (%v); the input no longer tests the fallback", err)
		}
		for m := 1; m < 3; m++ {
			if len(got.liveOld[m]) == 0 || len(got.quiet[m].old) == 0 {
				t.Fatalf("mode %d: %d live and %d quiet old rows, want both", m, len(got.liveOld[m]), len(got.quiet[m].old))
			}
		}
		for m, f := range got.Factors() {
			for _, v := range f.Data {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("factor %d holds %v", m, v)
				}
			}
		}
		requireFactorsClose(t, "ridge", got.Factors(), want.Factors(), 1e-10)
		requireTracesClose(t, "ridge", got.LossTrace(), want.LossTrace(), 1e-9)
	})
}

// TestQuietRunAllocFree extends TestIterationAllocFree — whose input
// has no quiet row — to the quiet path: the pre-pass, the T solve, the
// quiet Gram share and the write-out all work out of buffers sized in
// Bind.
func TestQuietRunAllocFree(t *testing.T) {
	prev, snap := bookStep(t, 3)
	for _, threads := range []int{1, 2} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			s, err := NewSweep(prev, snap, Options{Rank: 4, MaxIters: 3, Seed: 5, Threads: threads, Obs: obs.New()})
			if err != nil {
				t.Fatal(err)
			}
			e, err := s.bindSolo()
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if len(e.quiet[0].old) == 0 || len(e.quiet[0].grown) == 0 {
				t.Fatalf("mode 0 has %d quiet old and %d quiet growth rows, want both", len(e.quiet[0].old), len(e.quiet[0].grown))
			}
			pass := func() {
				if err := e.Run(nil); err != nil {
					t.Fatal(err)
				}
			}
			pass()
			if allocs := testing.AllocsPerRun(10, pass); allocs != 0 {
				t.Fatalf("steady-state run with quiet rows allocates %v times, want 0", allocs)
			}
		})
	}
}
