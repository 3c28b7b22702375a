package goldens

import (
	"fmt"
	"testing"

	"dismastd/internal/completion"
	"dismastd/internal/core"
	"dismastd/internal/dmsmg"
	"dismastd/internal/dtd"
	"dismastd/internal/partition"
)

// threadSweep is the tentpole acceptance sweep of the parallel runtime:
// every engine must reproduce its sequential golden hash at every
// thread count, because the runtime only ever partitions output
// elements and never splits a floating-point reduction across chunks.
var threadSweep = []int{1, 2, 3, 8}

func TestCPGoldenEveryThreadCount(t *testing.T) {
	for _, threads := range threadSweep {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			x := sparseRandom([]int{12, 10, 8}, 500, 3)
			st, _, err := dtd.Init(x, dtd.Options{Rank: 4, MaxIters: 6, Seed: 7, Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			checkHash(t, "cp", hashFactors(st.Factors), goldCP)
		})
	}
}

func TestDTDGoldenEveryThreadCount(t *testing.T) {
	for _, threads := range threadSweep {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			prev, full, opts := dtdFixture(t)
			opts.Threads = threads
			cur, _, err := dtd.Step(prev, full, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkHash(t, "dtd", hashFactors(cur.Factors), goldDTD)
		})
	}
}

func TestCoreGoldenEveryThreadCount(t *testing.T) {
	for _, threads := range threadSweep {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
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
					Workers: 3, Method: tc.method, Threads: threads,
				})
				if err != nil {
					t.Fatal(err)
				}
				checkHash(t, "core/"+tc.name, hashFactors(cur.Factors), tc.want)
			}
		})
	}
}

func TestDMSMGGoldenEveryThreadCount(t *testing.T) {
	for _, threads := range threadSweep {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			x := sparseRandom([]int{12, 10, 8}, 500, 3)
			factors, _, err := dmsmg.Decompose(x, dmsmg.Options{Rank: 3, MaxIters: 5, Seed: 7, Workers: 3, Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			checkHash(t, "dmsmg", hashFactors(factors), goldDMSMG)
		})
	}
}

func TestCompletionGoldenEveryThreadCount(t *testing.T) {
	for _, threads := range threadSweep {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			x := sparseRandom([]int{12, 10, 8}, 400, 13)
			res, err := completion.Decompose(x, completion.Options{Rank: 3, MaxIters: 5, Seed: 7, Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			checkHash(t, "completion", hashFactors(res.Factors), goldCompletion)

			dres, err := completion.DecomposeDistributed(x, completion.DistributedOptions{
				Options: completion.Options{Rank: 3, MaxIters: 5, Seed: 7, Threads: threads},
				Workers: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			checkHash(t, "completion/distributed", hashFactors(dres.Factors), goldCompletionDist)
		})
	}
}
