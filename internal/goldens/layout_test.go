package goldens

import (
	"fmt"
	"testing"

	"dismastd/internal/cluster"
	"dismastd/internal/completion"
	"dismastd/internal/core"
	"dismastd/internal/dplan"
	"dismastd/internal/dtd"
	"dismastd/internal/layout"
	"dismastd/internal/mat"
	"dismastd/internal/mttkrp"
	"dismastd/internal/par"
	"dismastd/internal/partition"
	"dismastd/internal/sample"
	"dismastd/internal/tensor"
)

// layoutSweep is the acceptance sweep of the kernel-representation
// layer: every engine must reproduce its sequential COO golden hash at
// every thread count — on the compiled layout, the one representation
// the engines build, and with the COO oracle bound into the same sweep
// — because a compiled layout only reorganises memory: the per-entry
// floating-point sequence it executes is exactly the COO walk's.
var layoutSweep = []layout.Kind{layout.COO, layout.Compiled}

func sweepLayouts(t *testing.T, run func(t *testing.T, kind layout.Kind, threads int)) {
	t.Helper()
	for _, kind := range layoutSweep {
		for _, threads := range threadSweep {
			t.Run(fmt.Sprintf("layout=%s/threads=%d", kind, threads), func(t *testing.T) {
				run(t, kind, threads)
			})
		}
	}
}

// oracleComm is a rank's dtd.Comm over its cluster worker, as
// internal/core binds it.
type oracleComm struct {
	w         *cluster.Worker
	exch      *dplan.Exchanger
	broadcast bool
}

func (c oracleComm) AllReduceSumInPlace(vec []float64) error { return c.w.AllReduceSumInPlace(vec) }
func (c oracleComm) ReduceScalarSum(x float64) (float64, error) {
	return c.w.ReduceScalarSum(x)
}
func (c oracleComm) PostRows(mode int, f *mat.Dense) error {
	return c.exch.Post(mode, f, c.broadcast)
}
func (c oracleComm) CollectRows(mode int, f *mat.Dense) error {
	return c.exch.Collect(mode, f, c.broadcast)
}

// oracleStep runs one step of the dtd.Sweep engine over COO kernels.
// The engines no longer take a layout, so the oracle is bound in from
// outside: the plan, per-rank entry lists, owned rows, collectives,
// row exchange and gather are the ones internal/core gives each rank
// (at one worker that is dtd.Step's world of one), with
// mttkrp.NewKernelOf(..., layout.COO) where the engines compile.
// Returns rank 0's gathered factors and loss trace.
func oracleStep(t *testing.T, prev *dtd.State, x *tensor.Tensor, opts dtd.Options, workers int, method partition.Method) ([]*mat.Dense, []float64) {
	t.Helper()
	s, err := dtd.NewSweep(prev, x, opts)
	if err != nil {
		t.Fatal(err)
	}
	plan := dplan.Build(s.Complement(), workers, workers, method)
	n := plan.Tensor.Order()
	var factors []*mat.Dense
	var trace []float64
	if _, err := cluster.NewLocal(workers).Run(func(w *cluster.Worker) error {
		me := w.Rank()
		kernels := make([]mttkrp.Kernel, n)
		owned := make([][]int32, n)
		for m := range kernels {
			kernels[m] = mttkrp.NewKernelOf(plan.Tensor, m, plan.EntryLists[me][m], layout.COO)
			owned[m] = plan.OwnedSlices[m][me]
		}
		var smp *sample.Sampler
		if opts.Solver == sample.Sampled {
			var err error
			if smp, err = sample.New(plan.Tensor, plan.EntryLists[me], opts.Rank, sample.DefaultSamples, opts.Seed, me); err != nil {
				return err
			}
		}
		exch := dplan.NewExchanger(w, plan)
		eng := s.Bind(par.New(opts.Threads), nil, kernels, owned, smp, oracleComm{w, exch, smp != nil}, nil)
		defer eng.Close()
		if err := eng.Run(nil); err != nil {
			return err
		}
		full, err := exch.Gather(eng.Factors())
		if me == 0 {
			factors, trace = full, eng.LossTrace()
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return factors, trace
}

// checkSameEnumeration holds the COO oracle and the compiled layout of
// one region to the same row-group enumeration — groups, rows, and each
// group's entries in order — which is all a row-wise engine reads of a
// kernel, so what it computes cannot depend on which one it was given.
func checkSameEnumeration(t *testing.T, x *tensor.Tensor, mode int, entries []int32) {
	t.Helper()
	build := func(kind layout.Kind) mttkrp.Kernel {
		if entries == nil { // the whole tensor; a nil list to NewKernelOf is an empty region
			return mttkrp.NewKernel(x, mode, kind)
		}
		return mttkrp.NewKernelOf(x, mode, entries, kind)
	}
	coo, comp := build(layout.COO), build(layout.Compiled)
	if coo.NNZ() != comp.NNZ() || coo.NumRows() != comp.NumRows() || coo.ModeSize() != comp.ModeSize() {
		t.Fatalf("mode %d: coo %d nnz / %d rows / size %d, compiled %d / %d / %d", mode,
			coo.NNZ(), coo.NumRows(), coo.ModeSize(), comp.NNZ(), comp.NumRows(), comp.ModeSize())
	}
	for g := 0; g < coo.NumRows(); g++ {
		a0, a1 := coo.GroupRange(g)
		b0, b1 := comp.GroupRange(g)
		if coo.GroupRow(g) != comp.GroupRow(g) || a1-a0 != b1-b0 {
			t.Fatalf("mode %d group %d: coo row %d len %d, compiled row %d len %d", mode, g, coo.GroupRow(g), a1-a0, comp.GroupRow(g), b1-b0)
		}
		for i := int32(0); i < a1-a0; i++ {
			if mathFloat64bits(coo.EntryVal(a0+i)) != mathFloat64bits(comp.EntryVal(b0+i)) {
				t.Fatalf("mode %d group %d entry %d: values differ", mode, g, i)
			}
			for k := 0; k < x.Order(); k++ {
				if coo.EntryCoord(a0+i, k) != comp.EntryCoord(b0+i, k) {
					t.Fatalf("mode %d group %d entry %d: mode-%d coordinates differ", mode, g, i, k)
				}
			}
		}
	}
}

func TestCPGoldenEveryLayout(t *testing.T) {
	sweepLayouts(t, func(t *testing.T, kind layout.Kind, threads int) {
		x := sparseRandom([]int{12, 10, 8}, 500, 3)
		opts := dtd.Options{Rank: 4, MaxIters: 6, Seed: 7, Threads: threads}
		if kind == layout.COO {
			factors, _ := oracleStep(t, dtd.EmptyState(x.Order(), opts.Rank), x, opts, 1, partition.GTPMethod)
			checkHash(t, "cp", hashFactors(factors), goldCP)
			return
		}
		st, _, err := dtd.Init(x, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkHash(t, "cp", hashFactors(st.Factors), goldCP)
	})
}

func TestDTDGoldenEveryLayout(t *testing.T) {
	sweepLayouts(t, func(t *testing.T, kind layout.Kind, threads int) {
		prev, full, opts := dtdFixture(t)
		opts.Threads = threads
		if kind == layout.COO {
			factors, _ := oracleStep(t, prev, full, opts, 1, partition.GTPMethod)
			checkHash(t, "dtd", hashFactors(factors), goldDTD)
			return
		}
		cur, _, err := dtd.Step(prev, full, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkHash(t, "dtd", hashFactors(cur.Factors), goldDTD)
	})
}

func TestCoreGoldenEveryLayout(t *testing.T) {
	sweepLayouts(t, func(t *testing.T, kind layout.Kind, threads int) {
		prev, full, opts := dtdFixture(t)
		opts.Threads = threads
		for _, tc := range []struct {
			name   string
			method partition.Method
			want   uint64
		}{
			{"gtp", partition.GTPMethod, goldCoreGTP},
			{"mtp", partition.MTPMethod, goldCoreMTP},
		} {
			if kind == layout.COO {
				factors, _ := oracleStep(t, prev, full, opts, 3, tc.method)
				checkHash(t, "core/"+tc.name, hashFactors(factors), tc.want)
				continue
			}
			cur, _, err := core.Step(prev, full, core.Options{
				Rank: opts.Rank, MaxIters: opts.MaxIters, Mu: opts.Mu, Seed: opts.Seed,
				Workers: 3, Method: tc.method, Threads: threads,
			})
			if err != nil {
				t.Fatal(err)
			}
			checkHash(t, "core/"+tc.name, hashFactors(cur.Factors), tc.want)
		}
	})
}

// TestCoreOneWorkerIsDTD pins the "one sweep, two bindings" contract:
// dtd.Step and a one-worker core.Step run the same engine, so factors
// and the whole loss trace agree bit for bit under every partitioning
// method, thread count and solver — and under the exact solver both sit
// on the DTD golden hash. The same holds from the empty state, where
// the one-worker step is dtd.Init: that is what lets a one-worker
// dismastd.Stream run its first snapshot on the session too. The
// layout=coo arms hold the one-worker core step (compiled) to the same
// sweep run over the COO oracle.
func TestCoreOneWorkerIsDTD(t *testing.T) {
	for _, solver := range []sample.Kind{sample.Exact, sample.Sampled} {
		for _, method := range []partition.Method{partition.GTPMethod, partition.MTPMethod} {
			for _, kind := range layoutSweep {
				for _, threads := range []int{1, 3} {
					t.Run(fmt.Sprintf("solver=%s/%v/layout=%s/threads=%d", solver, method, kind, threads), func(t *testing.T) {
						prev, full, opts := dtdFixture(t)
						opts.Threads, opts.Solver = threads, solver
						for _, start := range []struct {
							name   string
							from   *dtd.State
							oracle func() (*dtd.State, *dtd.Stats, error)
						}{
							{"prev", prev, func() (*dtd.State, *dtd.Stats, error) { return dtd.Step(prev, full, opts) }},
							{"empty", dtd.EmptyState(full.Order(), opts.Rank), func() (*dtd.State, *dtd.Stats, error) { return dtd.Init(full, opts) }},
						} {
							var want []*mat.Dense
							var wantTrace []float64
							if kind == layout.COO {
								want, wantTrace = oracleStep(t, start.from, full, opts, 1, method)
							} else {
								st, stats, err := start.oracle()
								if err != nil {
									t.Fatal(err)
								}
								want, wantTrace = st.Factors, stats.LossTrace
							}
							got, gotStats, err := core.Step(start.from, full, core.Options{
								Rank: opts.Rank, MaxIters: opts.MaxIters, Mu: opts.Mu, Seed: opts.Seed,
								Workers: 1, Method: method, Threads: threads, Solver: solver,
							})
							if err != nil {
								t.Fatal(err)
							}
							wantHash := hashFactors(want)
							if solver == sample.Exact && start.name == "prev" {
								checkHash(t, "dtd", wantHash, goldDTD)
							}
							checkHash(t, "core/workers=1/from="+start.name, hashFactors(got.Factors), wantHash)
							if len(gotStats.LossTrace) != len(wantTrace) {
								t.Fatalf("from %s: loss trace has %d sweeps, dtd %d", start.name, len(gotStats.LossTrace), len(wantTrace))
							}
							for i, l := range wantTrace {
								if mathFloat64bits(gotStats.LossTrace[i]) != mathFloat64bits(l) {
									t.Fatalf("from %s: sweep %d: loss %v vs dtd %v", start.name, i, gotStats.LossTrace[i], l)
								}
							}
						}
					})
				}
			}
		}
	}
}

func TestDMSMGGoldenEveryLayout(t *testing.T) {
	sweepLayouts(t, func(t *testing.T, kind layout.Kind, threads int) {
		x := sparseRandom([]int{12, 10, 8}, 500, 3)
		if kind == layout.COO {
			opts := dtd.Options{Rank: 3, MaxIters: 5, Seed: 7, Threads: threads}
			factors, _ := oracleStep(t, dtd.EmptyState(x.Order(), opts.Rank), x, opts, 3, partition.GTPMethod)
			checkHash(t, "dmsmg", hashFactors(factors), goldDMSMG)
			return
		}
		factors, _ := dmsmgStep(t, x, core.Options{Rank: 3, MaxIters: 5, Seed: 7, Workers: 3, Threads: threads})
		checkHash(t, "dmsmg", hashFactors(factors), goldDMSMG)
	})
}

func TestCompletionGoldenEveryLayout(t *testing.T) {
	sweepLayouts(t, func(t *testing.T, kind layout.Kind, threads int) {
		x := sparseRandom([]int{12, 10, 8}, 400, 13)
		if kind == layout.COO {
			// completion builds its kernels itself and reads them only
			// through the row-group enumeration, so the oracle arm holds
			// the two representations to the same enumeration over what
			// the engine below builds: the whole tensor.
			for m := 0; m < x.Order(); m++ {
				checkSameEnumeration(t, x, m, nil)
			}
		}
		res, err := completion.Decompose(x, completion.Options{Rank: 3, MaxIters: 5, Seed: 7, Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		checkHash(t, "completion", hashFactors(res.Factors), goldCompletion)
	})
}
