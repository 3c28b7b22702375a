package dismastd

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// TestThreadsDefaultSharesGOMAXPROCS holds Threads 0 to the share of the
// process worker gives each of its in-process ranks, max(1,
// GOMAXPROCS/Workers), and a stream at that default to a sequential one
// bit for bit: every step's sweep count, loss and factors.
func TestThreadsDefaultSharesGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	seq, err := GrowthSchedule(GenerateDataset(DatasetNetflix, 3000, 7), PaperGrowth())
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 3} {
			name := fmt.Sprintf("GOMAXPROCS=%d/Workers=%d", procs, workers)
			opts := Options{Rank: 3, MaxIters: 3, Workers: workers}
			resolved, err := opts.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			if want := max(1, procs/workers); resolved.Threads != want {
				t.Fatalf("%s: Threads 0 resolves to %d, want %d", name, resolved.Threads, want)
			}
			seqOpts := opts
			seqOpts.Threads = 1
			def, one := NewStream(opts), NewStream(seqOpts)
			for i := 0; i < seq.Len(); i++ {
				a, err := def.Ingest(seq.Snapshot(i))
				if err != nil {
					t.Fatal(err)
				}
				b, err := one.Ingest(seq.Snapshot(i))
				if err != nil {
					t.Fatal(err)
				}
				if a.Iters != b.Iters || math.Float64bits(a.Loss) != math.Float64bits(b.Loss) {
					t.Fatalf("%s step %d: %d sweeps to loss %v at the default, %d to %v at Threads 1", name, i, a.Iters, a.Loss, b.Iters, b.Loss)
				}
				for m, f := range def.Factors() {
					g := one.Factors()[m]
					for k, v := range f.Data {
						if math.Float64bits(v) != math.Float64bits(g.Data[k]) {
							t.Fatalf("%s step %d: factor %d element %d is %v at the default, %v at Threads 1", name, i, m, k, v, g.Data[k])
						}
					}
				}
			}
		}
	}
}
