package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"dismastd/internal/cluster"
	"dismastd/internal/dataset"
	"dismastd/internal/dplan"
	"dismastd/internal/dtd"
	"dismastd/internal/mat"
	"dismastd/internal/partition"
	"dismastd/internal/sample"
)

// runAndGather runs the job's sweeps on a fresh in-process cluster and
// then its gather, and returns what rank 0 got next to the assembly the
// gather replaced — a zeroed I×R matrix per mode filled from a copy of
// each rank's owned rows, taken before anything was gathered — plus
// rank 0's replicas and every rank's run statistics.
func runAndGather(t *testing.T, job *StepJob) (got, want, replica []*mat.Dense, stats *cluster.RunStats) {
	t.Helper()
	workers := job.Workers()
	n := len(job.plan.Dims)
	r := job.opts.Rank
	ownedRows := make([][]*mat.Dense, workers) // [rank][mode]: that rank's owned rows, in OwnedSlices order
	stats, err := cluster.NewLocal(workers).Run(func(w *cluster.Worker) error {
		eng := job.bind(w, nil)
		defer eng.Close()
		if err := eng.Run(nil); err != nil {
			return err
		}
		me := w.Rank()
		ownedRows[me] = make([]*mat.Dense, n)
		for m := 0; m < n; m++ {
			rows := job.plan.OwnedSlices[m][me]
			ownedRows[me][m] = mat.New(len(rows), r)
			for i, s := range rows {
				copy(ownedRows[me][m].Row(i), eng.Factors()[m].Row(int(s)))
			}
		}
		// Nobody gathers until every rank has copied its rows out.
		if err := w.Barrier(); err != nil {
			return err
		}
		out, err := dplan.GatherOwnedRows(w, job.plan.OwnedSlices, eng.Factors())
		if me == 0 {
			got, replica = out, eng.Factors()
		} else if out != nil {
			return fmt.Errorf("rank %d got a gather result", me)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want = make([]*mat.Dense, n)
	for m := 0; m < n; m++ {
		want[m] = mat.New(job.plan.Dims[m], r)
		for rank := 0; rank < workers; rank++ {
			for i, s := range job.plan.OwnedSlices[m][rank] {
				copy(want[m].Row(int(s)), ownedRows[rank][m].Row(i))
			}
		}
	}
	return got, want, replica, stats
}

// TestGatherMatchesOwnedRowAssembly: adopting rank 0's replica and
// scattering the peers' rows into it yields, bit for bit, the factors
// the old gather assembled from every rank's owned rows — across
// cluster sizes, partitioners, the broadcast exchange, the sampled
// solver, and plans in which some rank owns no row of some mode (no
// message travels for it). gather.rows counts exactly the rows that
// were not rank 0's.
func TestGatherMatchesOwnedRowAssembly(t *testing.T) {
	full := sparseRandom([]int{40, 9, 4}, 900, 21)
	prev := initState(t, full.Prefix([]int{32, 7, 3}), 3, 23)
	rowless := 0 // (rank, mode) pairs with no owned row, over all cases
	for _, workers := range []int{1, 2, 3, 5} {
		for _, method := range []partition.Method{partition.GTPMethod, partition.MTPMethod} {
			for _, variant := range []struct {
				name string
				set  func(*Options)
			}{
				{"subscribed", func(*Options) {}},
				{"broadcast", func(o *Options) { o.BroadcastRows = true }},
				{"sampled", func(o *Options) { o.Solver = sample.Sampled; o.Samples = 64 }},
				{"parts<workers", func(o *Options) { o.Parts = (workers + 1) / 2 }},
			} {
				name := fmt.Sprintf("workers=%d/%v/%s", workers, method, variant.name)
				opts := Options{Rank: 3, MaxIters: 3, Tol: 1e-300, Seed: 25, Workers: workers, Method: method}
				variant.set(&opts)
				job, err := NewStepJob(prev, full, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, want, replica, stats := runAndGather(t, job)
				peersRows := int64(0)
				for m := range want {
					if got[m] != replica[m] {
						t.Fatalf("%s: mode %d result is not rank 0's replica", name, m)
					}
					for i, v := range want[m].Data {
						if math.Float64bits(got[m].Data[i]) != math.Float64bits(v) {
							t.Fatalf("%s: mode %d element %d: gathered %v, owner holds %v", name, m, i, got[m].Data[i], v)
						}
					}
					peersRows += int64(job.plan.Dims[m] - len(job.plan.OwnedSlices[m][0]))
					for rank := 0; rank < workers; rank++ {
						if len(job.plan.OwnedSlices[m][rank]) == 0 {
							rowless++
						}
					}
				}
				if c := stats.Ranks[0].Obs.Metrics.Counters["gather.rows"]; c != peersRows {
					t.Fatalf("%s: gather.rows %d, want the %d rows rank 0 does not own", name, c, peersRows)
				}
				for rank := 1; rank < workers; rank++ {
					if c := stats.Ranks[rank].Obs.Metrics.Counters["gather.rows"]; c != 0 {
						t.Fatalf("%s: rank %d counted %d gathered rows", name, rank, c)
					}
				}
			}
		}
	}
	if rowless == 0 {
		t.Fatal("no case left a rank without a row in some mode; the no-message path went untested")
	}
}

// TestGatherAllocatesNoFactorOnRankZero: the gather allocates what
// travels — one payload per (mode, peer with rows) — and nothing the
// size of a factor beside it: no zeroed I×R result, no encoding of rank
// 0's own rows, no decoded staging copy. Bytes are counted process-wide
// between two barriers, so the peers' payloads are in the figure and in
// the bound.
func TestGatherAllocatesNoFactorOnRankZero(t *testing.T) {
	seq, err := dataset.Stream(dataset.Preset(dataset.Book, 20_000, 5).Generate(), []float64{0.75, 0.80, 1})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 2
	opts := Options{Rank: 8, MaxIters: 2, Tol: 1e-300, Seed: 11, Workers: workers, Method: partition.MTPMethod}
	prev, _, err := dtd.Init(seq.Snapshot(0), dtd.Options{Rank: opts.Rank, MaxIters: 2, Seed: opts.Seed})
	if err != nil {
		t.Fatal(err)
	}
	job, err := NewStepJob(prev, seq.Snapshot(1), opts)
	if err != nil {
		t.Fatal(err)
	}
	var payloads, factors uint64
	for m, d := range job.plan.Dims {
		factors += uint64(8 * d * opts.Rank)
		payloads += uint64(8 * (d - len(job.plan.OwnedSlices[m][0])) * opts.Rank)
	}
	var allocated uint64
	if _, err := cluster.NewLocal(workers).Run(func(w *cluster.Worker) error {
		eng := job.bind(w, nil)
		defer eng.Close()
		if err := eng.Run(nil); err != nil {
			return err
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		var before, after runtime.MemStats
		if w.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		if _, err := dplan.GatherOwnedRows(w, job.plan.OwnedSlices, eng.Factors()); err != nil {
			return err
		}
		// Rank 0 returns from the gather only after every payload has
		// arrived, so every peer allocation is behind it.
		if w.Rank() == 0 {
			runtime.ReadMemStats(&after)
			allocated = after.TotalAlloc - before.TotalAlloc
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	bound := payloads + 64<<10
	if factors < 2*(64<<10) {
		t.Fatalf("fixture too small: factors are %d bytes", factors)
	}
	if allocated > bound {
		t.Fatalf("gather allocated %d bytes; the peers' payloads are %d and the factors %d — want at most %d", allocated, payloads, factors, bound)
	}
}
