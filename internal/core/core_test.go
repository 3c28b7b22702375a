package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"dismastd/internal/cluster"
	"dismastd/internal/cp"
	"dismastd/internal/dtd"
	"dismastd/internal/mat"
	"dismastd/internal/partition"
	"dismastd/internal/tensor"
	"dismastd/internal/xrand"
)

func sparseRandom(dims []int, nnz int, seed uint64) *tensor.Tensor {
	src := xrand.New(seed)
	b := tensor.NewBuilder(dims)
	idx := make([]int, len(dims))
	for e := 0; e < nnz; e++ {
		for m, d := range dims {
			idx[m] = src.Intn(d)
		}
		b.Append(idx, src.Float64()+0.5)
	}
	return b.Build()
}

// totalWork returns the work units summed over ranks.
func totalWork(s *cluster.RunStats) (w float64) {
	for _, r := range s.Ranks {
		w += r.Work
	}
	return w
}

// relDiff returns the largest elementwise difference between factor
// sets, normalised by the largest magnitude.
func relDiff(a, b []*mat.Dense) float64 {
	var maxDiff, maxMag float64
	for m := range a {
		if d := mat.MaxAbsDiff(a[m], b[m]); d > maxDiff {
			maxDiff = d
		}
		for _, v := range a[m].Data {
			if av := math.Abs(v); av > maxMag {
				maxMag = av
			}
		}
	}
	return maxDiff / math.Max(maxMag, 1e-12)
}

func initState(t *testing.T, snap *tensor.Tensor, rank int, seed uint64) *dtd.State {
	t.Helper()
	st, _, err := dtd.Init(snap, dtd.Options{Rank: rank, MaxIters: 20, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestDistributedMatchesCentralizedDTD(t *testing.T) {
	full := sparseRandom([]int{25, 20, 15}, 1500, 1)
	prevDims := []int{20, 16, 12}
	prev := initState(t, full.Prefix(prevDims), 4, 3)

	dOpts := dtd.Options{Rank: 4, MaxIters: 7, Tol: 0, Mu: 0.8, Seed: 5}
	want, wantStats, err := dtd.Step(prev, full, dOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []partition.Method{partition.GTPMethod, partition.MTPMethod} {
		for _, workers := range []int{1, 2, 4} {
			got, gotStats, err := Step(prev, full, Options{
				Rank: 4, MaxIters: 7, Tol: 0, Mu: 0.8, Seed: 5,
				Workers: workers, Method: method,
			})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", method, workers, err)
			}
			if d := relDiff(got.Factors, want.Factors); d > 1e-8 {
				t.Fatalf("%v workers=%d: factors differ from DTD by %v", method, workers, d)
			}
			if math.Abs(gotStats.Loss-wantStats.Loss) > 1e-8*(1+wantStats.Loss) {
				t.Fatalf("%v workers=%d: loss %v vs DTD %v", method, workers, gotStats.Loss, wantStats.Loss)
			}
			if gotStats.Iters != wantStats.Iters {
				t.Fatalf("%v workers=%d: %d iters vs DTD %d", method, workers, gotStats.Iters, wantStats.Iters)
			}
		}
	}
}

func TestAblationVariantsMatchDefault(t *testing.T) {
	full := sparseRandom([]int{18, 15, 12}, 800, 7)
	prev := initState(t, full.Prefix([]int{14, 12, 10}), 3, 9)
	base, baseStats, err := Step(prev, full, Options{Rank: 3, MaxIters: 5, Tol: 0, Workers: 3, Method: partition.MTPMethod, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]Options{
		"broadcast rows": {Rank: 3, MaxIters: 5, Tol: 0, Workers: 3, Method: partition.MTPMethod, Seed: 11, broadcastRows: true},
		"naive loss":     {Rank: 3, MaxIters: 5, Tol: 0, Workers: 3, Method: partition.MTPMethod, Seed: 11, naiveLoss: true},
	} {
		got, gotStats, err := Step(prev, full, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := relDiff(got.Factors, base.Factors); d > 1e-9 {
			t.Fatalf("%s: factors differ by %v", name, d)
		}
		if math.Abs(gotStats.Loss-baseStats.Loss) > 1e-8*(1+baseStats.Loss) {
			t.Fatalf("%s: loss %v vs %v", name, gotStats.Loss, baseStats.Loss)
		}
	}
}

func TestBroadcastRowsCostsMoreTraffic(t *testing.T) {
	full := sparseRandom([]int{300, 250, 200}, 1500, 13)
	prev := initState(t, full.Prefix([]int{220, 200, 150}), 5, 15)
	run := func(broadcast bool) int64 {
		_, stats, err := Step(prev, full, Options{Rank: 5, MaxIters: 3, Tol: 0, Workers: 4, Method: partition.MTPMethod, Seed: 17, broadcastRows: broadcast})
		if err != nil {
			t.Fatal(err)
		}
		return stats.Cluster.TotalBytes()
	}
	if sub, bc := run(false), run(true); sub >= bc {
		t.Fatalf("subscription traffic %d not below broadcast %d", sub, bc)
	}
}

func TestLossReuseCheaperThanNaive(t *testing.T) {
	full := sparseRandom([]int{60, 50, 40}, 5000, 19)
	prev := initState(t, full.Prefix([]int{45, 40, 30}), 5, 21)
	run := func(naive bool) float64 {
		_, stats, err := Step(prev, full, Options{Rank: 5, MaxIters: 3, Tol: 0, Workers: 2, Method: partition.GTPMethod, Seed: 23, naiveLoss: naive})
		if err != nil {
			t.Fatal(err)
		}
		return totalWork(stats.Cluster)
	}
	if reuse, naive := run(false), run(true); reuse >= naive {
		t.Fatalf("reuse work %v not below naive %v", reuse, naive)
	}
}

func TestSingleWorkerIsCentralized(t *testing.T) {
	full := sparseRandom([]int{12, 12, 12}, 400, 25)
	prev := initState(t, full.Prefix([]int{9, 9, 9}), 3, 27)
	got, stats, err := Step(prev, full, Options{Rank: 3, MaxIters: 4, Tol: 0, Workers: 1, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	want, wantStats, err := dtd.Step(prev, full, dtd.Options{Rank: 3, MaxIters: 4, Tol: 0, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	// One engine, two bindings: at one worker the bits are the same.
	for m := range want.Factors {
		for i, v := range want.Factors[m].Data {
			if g := got.Factors[m].Data[i]; math.Float64bits(g) != math.Float64bits(v) {
				t.Fatalf("single-worker factor %d entry %d: %v vs centralized %v", m, i, g, v)
			}
		}
	}
	if !reflect.DeepEqual(stats.LossTrace, wantStats.LossTrace) {
		t.Fatalf("single-worker loss trace %v vs centralized %v", stats.LossTrace, wantStats.LossTrace)
	}
	// A single worker exchanges no factor rows; the only traffic is the
	// degenerate collectives.
	if stats.Cluster.Ranks[0].MsgsSent != 0 {
		t.Fatalf("single worker sent %d messages", stats.Cluster.Ranks[0].MsgsSent)
	}
}

func TestFinerPartitionsThanWorkers(t *testing.T) {
	full := sparseRandom([]int{30, 25, 20}, 1200, 31)
	prev := initState(t, full.Prefix([]int{24, 20, 16}), 3, 33)
	want, _, err := dtd.Step(prev, full, dtd.Options{Rank: 3, MaxIters: 4, Tol: 0, Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Step(prev, full, Options{Rank: 3, MaxIters: 4, Tol: 0, Workers: 3, Parts: 9, Method: partition.MTPMethod, Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	if d := relDiff(got.Factors, want.Factors); d > 1e-8 {
		t.Fatalf("parts=9 differs by %v", d)
	}
}

func TestFourthOrderDistributed(t *testing.T) {
	full := sparseRandom([]int{10, 9, 8, 7}, 700, 37)
	prev := initState(t, full.Prefix([]int{8, 7, 6, 6}), 3, 39)
	want, _, err := dtd.Step(prev, full, dtd.Options{Rank: 3, MaxIters: 3, Tol: 0, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Step(prev, full, Options{Rank: 3, MaxIters: 3, Tol: 0, Workers: 4, Method: partition.GTPMethod, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	if d := relDiff(got.Factors, want.Factors); d > 1e-8 {
		t.Fatalf("4th-order differs by %v", d)
	}
}

func TestStreamingSequenceEndToEnd(t *testing.T) {
	full := sparseRandom([]int{30, 28, 26}, 4000, 43)
	seq, err := tensor.NewSequence(full, [][]int{{22, 21, 20}, {26, 24, 23}, {30, 28, 26}})
	if err != nil {
		t.Fatal(err)
	}
	st := initState(t, seq.Snapshot(0), 4, 45)
	for i := 1; i < seq.Len(); i++ {
		snap := seq.Snapshot(i)
		var stats *StepStats
		st, stats, err = Step(st, snap, Options{Rank: 4, MaxIters: 10, Workers: 4, Method: partition.MTPMethod, Seed: 47})
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if stats.ComplementNNZ <= 0 {
			t.Fatalf("step %d touched no data", i)
		}
		loss := cp.LossAgainst(snap, st.Factors)
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Fatalf("step %d produced non-finite loss", i)
		}
	}
}

func TestCommunicationScalesWithTheorem4(t *testing.T) {
	// Theorem 4: per-iteration communication is O(MNR² + NIR + NdR) —
	// independent of nnz. Doubling the complement nnz with fixed dims
	// must leave iteration traffic roughly unchanged, while doubling R
	// must increase it.
	dims := []int{40, 40, 40}
	prevDims := []int{30, 30, 30}
	small := sparseRandom(dims, 2000, 49)
	big := sparseRandom(dims, 8000, 51)
	traffic := func(x *tensor.Tensor, rank int) int64 {
		prev := initState(t, x.Prefix(prevDims), rank, 53)
		_, stats, err := Step(prev, x, Options{Rank: rank, MaxIters: 3, Tol: 0, Workers: 4, Method: partition.MTPMethod, Seed: 55})
		if err != nil {
			t.Fatal(err)
		}
		return stats.Cluster.TotalBytes()
	}
	tSmall := traffic(small, 4)
	tBig := traffic(big, 4)
	ratio := float64(tBig) / float64(tSmall)
	if ratio > 2.0 {
		t.Fatalf("4x nnz grew traffic %.2fx; iteration communication should not scale with nnz", ratio)
	}
	if tR8 := traffic(small, 8); tR8 <= tSmall {
		t.Fatalf("doubling R did not increase traffic (%d vs %d)", tR8, tSmall)
	}
}

// TestStaticStepFitsLowRankData: from the empty state a step is static
// CP-ALS, so on a fully observed rank-2 tensor a rank-3 fit must be
// near-perfect.
func TestStaticStepFitsLowRankData(t *testing.T) {
	src := xrand.New(3)
	dims := []int{15, 12, 10}
	factors := []*mat.Dense{
		mat.RandomUniform(dims[0], 2, src),
		mat.RandomUniform(dims[1], 2, src),
		mat.RandomUniform(dims[2], 2, src),
	}
	b := tensor.NewBuilder(dims)
	idx := make([]int, 3)
	for i := 0; i < dims[0]; i++ {
		for j := 0; j < dims[1]; j++ {
			for k := 0; k < dims[2]; k++ {
				idx[0], idx[1], idx[2] = i, j, k
				b.Append(idx, cp.Reconstruct(factors, idx))
			}
		}
	}
	x := b.Build()
	_, stats, err := Step(dtd.EmptyState(3, 3), x, Options{Rank: 3, MaxIters: 60, Tol: 1e-10, Workers: 3, Method: partition.MTPMethod, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if fit := 1 - stats.Loss/x.Norm(); fit < 0.95 {
		t.Fatalf("fit %v on rank-2 data", fit)
	}
}

// TestStaticStepWorkScalesWithNNZ: a step from the empty state — the
// DMS-MG baseline — does per-iteration work that tracks the full tensor
// size, the property that makes it lose to DisMASTD in Fig. 5.
func TestStaticStepWorkScalesWithNNZ(t *testing.T) {
	dims := []int{40, 40, 40}
	work := func(x *tensor.Tensor) float64 {
		_, stats, err := Step(dtd.EmptyState(3, 4), x, Options{Rank: 4, MaxIters: 3, Tol: 0, Workers: 4, Method: partition.MTPMethod, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		return totalWork(stats.Cluster)
	}
	ws, wb := work(sparseRandom(dims, 2000, 9)), work(sparseRandom(dims, 8000, 11))
	if wb < 2.5*ws {
		t.Fatalf("4x nnz grew work only %.2fx; static baseline must scale with nnz", wb/ws)
	}
}

// TestStaticStepMatchesCentralizedCP: a step from the empty state is the
// DMS-MG baseline, static CP-ALS. It must match the centralized static
// path, dtd.Init, and sweep the whole tensor as its complement.
func TestStaticStepMatchesCentralizedCP(t *testing.T) {
	x := sparseRandom([]int{20, 18, 15}, 1000, 1)
	want, wantStats, err := dtd.Init(x, dtd.Options{Rank: 4, MaxIters: 6, Tol: 0, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []partition.Method{partition.GTPMethod, partition.MTPMethod} {
		for _, workers := range []int{1, 3} {
			got, stats, err := Step(dtd.EmptyState(x.Order(), 4), x, Options{Rank: 4, MaxIters: 6, Tol: 0, Seed: 7, Workers: workers, Method: method})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", method, workers, err)
			}
			if d := relDiff(got.Factors, want.Factors); d > 1e-8 {
				t.Fatalf("%v workers=%d: factors differ from CP by %v", method, workers, d)
			}
			if math.Abs(stats.Loss-wantStats.Loss) > 1e-8*(1+wantStats.Loss) {
				t.Fatalf("%v workers=%d: loss %v vs CP %v", method, workers, stats.Loss, wantStats.Loss)
			}
			if stats.Iters != wantStats.Iters {
				t.Fatalf("%v workers=%d: %d iters vs CP %d", method, workers, stats.Iters, wantStats.Iters)
			}
			if stats.ComplementNNZ != x.NNZ() {
				t.Fatalf("%v workers=%d: static step swept %d of %d entries", method, workers, stats.ComplementNNZ, x.NNZ())
			}
		}
	}
}

// TestStaticStepStatsPopulated: the stats the DMS-MG rows report are all
// filled in by a step from the empty state.
func TestStaticStepStatsPopulated(t *testing.T) {
	x := sparseRandom([]int{25, 20, 15}, 900, 17)
	_, stats, err := Step(dtd.EmptyState(3, 3), x, Options{Rank: 3, MaxIters: 2, Workers: 3, Method: partition.GTPMethod, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ComplementNNZ != x.NNZ() {
		t.Fatalf("complement NNZ = %d of %d", stats.ComplementNNZ, x.NNZ())
	}
	if len(stats.Imbalance) != 3 || stats.SetupBytes <= 0 || stats.Cluster == nil {
		t.Fatalf("stats incomplete: %+v", stats)
	}
	if len(stats.LossTrace) != stats.Iters {
		t.Fatalf("%d trace entries for %d iters", len(stats.LossTrace), stats.Iters)
	}
}

// TestStaticStepValidation: a step from the empty state rejects the same
// bad options the DMS-MG baseline did.
func TestStaticStepValidation(t *testing.T) {
	x := sparseRandom([]int{5, 5, 5}, 30, 15)
	for name, opts := range map[string]Options{
		"rank 0":     {Rank: 0, Workers: 2},
		"no workers": {Rank: 2, Workers: 0},
		"bad tol":    {Rank: 2, Workers: 2, Tol: -1},
	} {
		if _, _, err := Step(dtd.EmptyState(3, 2), x, opts); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

func TestOptionValidation(t *testing.T) {
	full := sparseRandom([]int{6, 6, 6}, 50, 57)
	prev := initState(t, full.Prefix([]int{5, 5, 5}), 2, 59)
	cases := map[string]Options{
		"rank 0":     {Rank: 0, Workers: 2},
		"no workers": {Rank: 2, Workers: 0},
		"bad mu":     {Rank: 2, Workers: 2, Mu: 2},
		"bad tol":    {Rank: 2, Workers: 2, Tol: -1},
	}
	for name, opts := range cases {
		if _, _, err := Step(prev, full, opts); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	smaller := sparseRandom([]int{4, 6, 6}, 30, 61)
	if _, _, err := Step(prev, smaller, Options{Rank: 2, Workers: 2}); err == nil {
		t.Fatal("shrinking snapshot accepted")
	}
}

func TestImbalanceReported(t *testing.T) {
	full := sparseRandom([]int{40, 40, 40}, 3000, 63)
	prev := initState(t, full.Prefix([]int{30, 30, 30}), 3, 65)
	_, stats, err := Step(prev, full, Options{Rank: 3, MaxIters: 2, Workers: 5, Method: partition.MTPMethod, Seed: 67})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Imbalance) != 3 {
		t.Fatalf("imbalance %v", stats.Imbalance)
	}
	if stats.SetupBytes <= 0 {
		t.Fatal("setup bytes not reported")
	}
}

func TestStepJobFaultInjection(t *testing.T) {
	// A network fault mid-step must surface as an error from every
	// blocked rank, not a hang: the poisoned mailboxes release them.
	full := sparseRandom([]int{20, 18, 15}, 600, 71)
	prev := initState(t, full.Prefix([]int{16, 14, 12}), 3, 73)
	job, err := NewStepJob(prev, full, Options{Rank: 3, MaxIters: 5, Tol: 0, Workers: 3, Method: partition.MTPMethod, Seed: 75})
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.NewLocal(job.Workers())
	cl.SetRecvTimeout(5 * time.Second)
	cl.SetFaultPlan(cluster.NewFaultPlan().Add(cluster.FaultRule{From: 1, To: 0, FirstSeq: 10, Op: cluster.FaultError}))
	done := make(chan struct{})
	var runErr error
	go func() {
		_, runErr = cl.Run(job.RunWorker)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("fault did not release the cluster")
	}
	if runErr == nil {
		t.Fatal("injected fault produced no error")
	}
	if _, _, err := job.Result(); err == nil {
		t.Fatal("failed job still produced a result")
	}
}

func TestMoreWorkersThanSlices(t *testing.T) {
	// Eight workers, tiny tensor: several workers own nothing in some
	// modes; the step must still match the centralized result.
	full := sparseRandom([]int{6, 5, 4}, 60, 77)
	prev := initState(t, full.Prefix([]int{5, 4, 3}), 2, 79)
	want, _, err := dtd.Step(prev, full, dtd.Options{Rank: 2, MaxIters: 4, Tol: 0, Seed: 81})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Step(prev, full, Options{Rank: 2, MaxIters: 4, Tol: 0, Workers: 8, Method: partition.GTPMethod, Seed: 81})
	if err != nil {
		t.Fatal(err)
	}
	if d := relDiff(got.Factors, want.Factors); d > 1e-8 {
		t.Fatalf("differs from centralized by %v", d)
	}
}

func TestIdleWorkersWithFewParts(t *testing.T) {
	// Parts < Workers leaves workers idle but the result is unchanged.
	full := sparseRandom([]int{25, 20, 18}, 900, 83)
	prev := initState(t, full.Prefix([]int{20, 16, 15}), 3, 85)
	want, _, err := dtd.Step(prev, full, dtd.Options{Rank: 3, MaxIters: 4, Tol: 0, Seed: 87})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := Step(prev, full, Options{Rank: 3, MaxIters: 4, Tol: 0, Workers: 6, Parts: 2, Method: partition.MTPMethod, Seed: 87})
	if err != nil {
		t.Fatal(err)
	}
	if d := relDiff(got.Factors, want.Factors); d > 1e-8 {
		t.Fatalf("differs from centralized by %v", d)
	}
	// Workers 2..5 own nothing and therefore record no compute work.
	for r := 2; r < 6; r++ {
		if stats.Cluster.Ranks[r].Work > stats.Cluster.Ranks[0].Work/2 {
			t.Fatalf("worker %d should be (nearly) idle: %+v", r, stats.Cluster.Ranks[r].Work)
		}
	}
}

func TestDistributedSoakLongStream(t *testing.T) {
	// Ten multi-aspect steps on a skewed stream with the distributed
	// engine: losses stay finite, factors stay bounded, and the final
	// state matches the centralized DTD run step for step.
	full := sparseRandom([]int{60, 50, 40}, 8000, 91)
	var steps [][]int
	for i := 0; i <= 10; i++ {
		f := 0.5 + 0.05*float64(i)
		steps = append(steps, []int{
			int(60*f + 0.999), int(50*f + 0.999), int(40*f + 0.999),
		})
	}
	seq, err := tensor.NewSequence(full, steps)
	if err != nil {
		t.Fatal(err)
	}
	opts := dtd.Options{Rank: 4, MaxIters: 5, Tol: 0, Seed: 93}
	dState, _, err := dtd.Init(seq.Snapshot(0), opts)
	if err != nil {
		t.Fatal(err)
	}
	cState := dState.Clone()
	for i := 1; i < seq.Len(); i++ {
		snap := seq.Snapshot(i)
		seed := uint64(93 + i)
		dState, _, err = Step(dState, snap, Options{
			Rank: 4, MaxIters: 5, Tol: 0, Workers: 5, Method: partition.MTPMethod, Seed: seed,
		})
		if err != nil {
			t.Fatalf("distributed step %d: %v", i, err)
		}
		var stats *dtd.Stats
		cState, stats, err = dtd.Step(cState, snap, dtd.Options{Rank: 4, MaxIters: 5, Tol: 0, Seed: seed})
		if err != nil {
			t.Fatalf("centralized step %d: %v", i, err)
		}
		if math.IsNaN(stats.Loss) || math.IsInf(stats.Loss, 0) {
			t.Fatalf("step %d loss %v", i, stats.Loss)
		}
		if d := relDiff(dState.Factors, cState.Factors); d > 1e-6 {
			t.Fatalf("step %d: engines diverged by %v", i, d)
		}
	}
}
