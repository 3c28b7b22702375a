package goldens

import (
	"fmt"
	"testing"

	"dismastd/internal/completion"
	"dismastd/internal/core"
	"dismastd/internal/dmsmg"
	"dismastd/internal/dtd"
	"dismastd/internal/layout"
	"dismastd/internal/partition"
	"dismastd/internal/sample"
)

// layoutSweep is the acceptance sweep of the kernel-representation
// layer: every engine must reproduce its sequential COO golden hash
// under both representations at every thread count, because a compiled
// layout only reorganises memory — the per-entry floating-point
// sequence it executes is exactly the COO walk's.
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

func TestCPGoldenEveryLayout(t *testing.T) {
	sweepLayouts(t, func(t *testing.T, kind layout.Kind, threads int) {
		x := sparseRandom([]int{12, 10, 8}, 500, 3)
		st, _, err := dtd.Init(x, dtd.Options{Rank: 4, MaxIters: 6, Seed: 7, Threads: threads, Layout: kind})
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
		opts.Layout = kind
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
		for _, tc := range []struct {
			name   string
			method partition.Method
			want   uint64
		}{
			{"gtp", partition.GTPMethod, goldCoreGTP},
			{"mtp", partition.MTPMethod, goldCoreMTP},
		} {
			cur, _, err := core.Step(prev, full, core.Options{
				Rank: opts.Rank, MaxIters: opts.MaxIters, Mu: opts.Mu, Seed: opts.Seed,
				Workers: 3, Method: tc.method, Threads: threads, Layout: kind,
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
// method, layout, thread count and solver — and under the exact solver
// both sit on the DTD golden hash.
func TestCoreOneWorkerIsDTD(t *testing.T) {
	for _, solver := range []sample.Kind{sample.Exact, sample.Sampled} {
		for _, method := range []partition.Method{partition.GTPMethod, partition.MTPMethod} {
			for _, kind := range layoutSweep {
				for _, threads := range []int{1, 3} {
					t.Run(fmt.Sprintf("solver=%s/%v/layout=%s/threads=%d", solver, method, kind, threads), func(t *testing.T) {
						prev, full, opts := dtdFixture(t)
						opts.Threads, opts.Layout, opts.Solver = threads, kind, solver
						want, wantStats, err := dtd.Step(prev, full, opts)
						if err != nil {
							t.Fatal(err)
						}
						got, gotStats, err := core.Step(prev, full, core.Options{
							Rank: opts.Rank, MaxIters: opts.MaxIters, Mu: opts.Mu, Seed: opts.Seed,
							Workers: 1, Method: method, Threads: threads, Layout: kind, Solver: solver,
						})
						if err != nil {
							t.Fatal(err)
						}
						wantHash := hashFactors(want.Factors)
						if solver == sample.Exact {
							checkHash(t, "dtd", wantHash, goldDTD)
						}
						checkHash(t, "core/workers=1", hashFactors(got.Factors), wantHash)
						if len(gotStats.LossTrace) != len(wantStats.LossTrace) {
							t.Fatalf("loss trace has %d sweeps, dtd %d", len(gotStats.LossTrace), len(wantStats.LossTrace))
						}
						for i, l := range wantStats.LossTrace {
							if mathFloat64bits(gotStats.LossTrace[i]) != mathFloat64bits(l) {
								t.Fatalf("sweep %d: loss %v vs dtd %v", i, gotStats.LossTrace[i], l)
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
		factors, _, err := dmsmg.Decompose(x, dmsmg.Options{Rank: 3, MaxIters: 5, Seed: 7, Workers: 3, Threads: threads, Layout: kind})
		if err != nil {
			t.Fatal(err)
		}
		checkHash(t, "dmsmg", hashFactors(factors), goldDMSMG)
	})
}

func TestCompletionGoldenEveryLayout(t *testing.T) {
	sweepLayouts(t, func(t *testing.T, kind layout.Kind, threads int) {
		x := sparseRandom([]int{12, 10, 8}, 400, 13)
		res, err := completion.Decompose(x, completion.Options{Rank: 3, MaxIters: 5, Seed: 7, Threads: threads, Layout: kind})
		if err != nil {
			t.Fatal(err)
		}
		checkHash(t, "completion", hashFactors(res.Factors), goldCompletion)

		dres, err := completion.DecomposeDistributed(x, completion.DistributedOptions{
			Options: completion.Options{Rank: 3, MaxIters: 5, Seed: 7, Threads: threads, Layout: kind},
			Workers: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkHash(t, "completion/distributed", hashFactors(dres.Factors), goldCompletionDist)
	})
}
