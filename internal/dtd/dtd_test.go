package dtd

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"dismastd/internal/cp"
	"dismastd/internal/mat"
	"dismastd/internal/tensor"
	"dismastd/internal/xrand"
)

// denseLowRank materialises every cell of a rank-r Kruskal model over
// dims, so prefixes of it are exactly low-rank streaming snapshots.
func denseLowRank(dims []int, r int, seed uint64) *tensor.Tensor {
	src := xrand.New(seed)
	factors := make([]*mat.Dense, len(dims))
	for m, d := range dims {
		factors[m] = mat.RandomUniform(d, r, src)
	}
	b := tensor.NewBuilder(dims)
	var walk func(idx []int, m int)
	walk = func(idx []int, m int) {
		if m == len(dims) {
			b.Append(idx, cp.Reconstruct(factors, idx))
			return
		}
		for i := 0; i < dims[m]; i++ {
			idx[m] = i
			walk(idx, m+1)
		}
	}
	walk(make([]int, len(dims)), 0)
	return b.Build()
}

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

func TestInitMatchesCP(t *testing.T) {
	x := denseLowRank([]int{6, 6, 6}, 2, 1)
	st, stats, err := Init(x, Options{Rank: 2, MaxIters: 100, Tol: 1e-10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if fit := 1 - stats.Loss/x.Norm(); fit < 0.995 {
		t.Fatalf("init fit %v too low (loss %v)", fit, stats.Loss)
	}
	for m, d := range x.Dims {
		if st.Factors[m].Rows != d {
			t.Fatalf("factor %d has %d rows, want %d", m, st.Factors[m].Rows, d)
		}
	}
}

func TestStepTracksGrowingLowRankTensor(t *testing.T) {
	full := denseLowRank([]int{10, 9, 8}, 2, 2)
	seq, err := tensor.NewSequence(full, [][]int{{7, 6, 6}, {8, 8, 7}, {10, 9, 8}})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Rank: 2, MaxIters: 120, Tol: 1e-12, Mu: 0.8, Seed: 5}
	st, _, err := Init(seq.Snapshot(0), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < seq.Len(); i++ {
		snap := seq.Snapshot(i)
		var stats *Stats
		st, stats, err = Step(st, snap, opts)
		if err != nil {
			t.Fatal(err)
		}
		if stats.ComplementNNZ != snap.NNZ()-seq.Snapshot(i-1).NNZ() {
			t.Fatalf("step %d complement nnz %d", i, stats.ComplementNNZ)
		}
		// The actual reconstruction of the snapshot must be good: the
		// data is exactly rank 2, so the fit should be near-perfect.
		loss := cp.LossAgainst(snap, st.Factors)
		if fit := 1 - loss/snap.Norm(); fit < 0.98 {
			t.Fatalf("step %d fit %v too low", i, fit)
		}
	}
}

func TestLossMatchesDefinitionalForm(t *testing.T) {
	full := sparseRandom([]int{12, 11, 10}, 600, 7)
	prevDims := []int{9, 8, 8}
	prevSnap := full.Prefix(prevDims)
	opts := Options{Rank: 3, MaxIters: 8, Mu: 0.7, Seed: 9}
	prev, _, err := Init(prevSnap, opts)
	if err != nil {
		t.Fatal(err)
	}
	cur, stats, err := Step(prev, full, opts)
	if err != nil {
		t.Fatal(err)
	}
	direct := LossAgainst(prev, full, cur, 0.7)
	if math.Abs(direct-stats.Loss) > 1e-6*(1+direct) {
		t.Fatalf("reuse loss %v != definitional loss %v", stats.Loss, direct)
	}
}

func TestLossMonotoneNonIncreasing(t *testing.T) {
	full := sparseRandom([]int{15, 12, 10}, 800, 11)
	prev, _, err := Init(full.Prefix([]int{11, 9, 8}), Options{Rank: 4, MaxIters: 20, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := Step(prev, full, Options{Rank: 4, MaxIters: 15, Tol: 0, Mu: 0.8, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(stats.LossTrace); i++ {
		if stats.LossTrace[i] > stats.LossTrace[i-1]*(1+1e-9)+1e-9 {
			t.Fatalf("loss increased at sweep %d: %v -> %v", i, stats.LossTrace[i-1], stats.LossTrace[i])
		}
	}
}

func TestStepWithNoGrowthIsStable(t *testing.T) {
	// Same dims, no new data: the complement is empty, and with the
	// previous factors as the optimum of the old-region term the state
	// should barely move.
	x := denseLowRank([]int{7, 7, 7}, 2, 15)
	opts := Options{Rank: 2, MaxIters: 200, Tol: 1e-13, Seed: 17}
	prev, _, err := Init(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	cur, stats, err := Step(prev, x, Options{Rank: 2, MaxIters: 5, Mu: 0.8, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ComplementNNZ != 0 {
		t.Fatalf("complement nnz %d, want 0", stats.ComplementNNZ)
	}
	loss := cp.LossAgainst(x, cur.Factors)
	if fit := 1 - loss/x.Norm(); fit < 0.99 {
		t.Fatalf("no-growth step degraded fit to %v", fit)
	}
}

func TestStepGrowthInSingleMode(t *testing.T) {
	// Traditional one-mode streaming is a special case of multi-aspect.
	full := denseLowRank([]int{8, 6, 6}, 2, 19)
	opts := Options{Rank: 2, MaxIters: 150, Tol: 1e-12, Seed: 21}
	prev, _, err := Init(full.Prefix([]int{5, 6, 6}), opts)
	if err != nil {
		t.Fatal(err)
	}
	cur, _, err := Step(prev, full, opts)
	if err != nil {
		t.Fatal(err)
	}
	loss := cp.LossAgainst(full, cur.Factors)
	if fit := 1 - loss/full.Norm(); fit < 0.98 {
		t.Fatalf("single-mode growth fit %v", fit)
	}
}

func TestStepValidation(t *testing.T) {
	x := sparseRandom([]int{5, 5, 5}, 40, 23)
	prev, _, err := Init(x, Options{Rank: 2, MaxIters: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Shrinking mode.
	smaller := sparseRandom([]int{4, 5, 5}, 30, 25)
	if _, _, err := Step(prev, smaller, Options{Rank: 2}); err == nil {
		t.Fatal("shrinking snapshot accepted")
	}
	// Wrong order.
	wrongOrder := sparseRandom([]int{5, 5}, 20, 27)
	if _, _, err := Step(prev, wrongOrder, Options{Rank: 2}); err == nil {
		t.Fatal("wrong-order snapshot accepted")
	}
	// Bad options.
	if _, _, err := Step(prev, x, Options{Rank: 0}); err == nil {
		t.Fatal("rank 0 accepted")
	}
	if _, _, err := Step(prev, x, Options{Rank: 2, Mu: 1.5}); err == nil {
		t.Fatal("mu > 1 accepted")
	}
	if _, _, err := Step(prev, x, Options{Rank: 2, Mu: -0.1}); err == nil {
		t.Fatal("mu < 0 accepted")
	}
	// Rank mismatch with previous factors.
	if _, _, err := Step(prev, x, Options{Rank: 3}); err == nil {
		t.Fatal("rank mismatch accepted")
	}
}

func TestStateCloneIsDeep(t *testing.T) {
	x := sparseRandom([]int{4, 4, 4}, 20, 29)
	st, _, err := Init(x, Options{Rank: 2, MaxIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := st.Clone()
	c.Factors[0].Set(0, 0, 999)
	if st.Factors[0].At(0, 0) == 999 {
		t.Fatal("Clone shares factor storage")
	}
	c.Dims[0] = 999
	if st.Dims[0] == 999 {
		t.Fatal("Clone shares dims")
	}
}

func TestDeterministic(t *testing.T) {
	full := sparseRandom([]int{10, 10, 10}, 300, 31)
	opts := Options{Rank: 3, MaxIters: 6, Seed: 33}
	run := func() *State {
		prev, _, err := Init(full.Prefix([]int{7, 7, 7}), opts)
		if err != nil {
			t.Fatal(err)
		}
		cur, _, err := Step(prev, full, opts)
		if err != nil {
			t.Fatal(err)
		}
		return cur
	}
	a, b := run(), run()
	for m := range a.Factors {
		if mat.MaxAbsDiff(a.Factors[m], b.Factors[m]) != 0 {
			t.Fatalf("mode %d differs across identical runs", m)
		}
	}
}

func TestFourthOrderStep(t *testing.T) {
	full := denseLowRank([]int{6, 5, 4, 4}, 2, 35)
	opts := Options{Rank: 2, MaxIters: 150, Tol: 1e-12, Seed: 37}
	prev, _, err := Init(full.Prefix([]int{4, 4, 3, 3}), opts)
	if err != nil {
		t.Fatal(err)
	}
	cur, _, err := Step(prev, full, opts)
	if err != nil {
		t.Fatal(err)
	}
	loss := cp.LossAgainst(full, cur.Factors)
	if fit := 1 - loss/full.Norm(); fit < 0.97 {
		t.Fatalf("4th-order streaming fit %v", fit)
	}
}

func BenchmarkStep(b *testing.B) {
	full := sparseRandom([]int{2000, 2000, 400}, 200000, 41)
	prevDims := []int{1800, 1800, 360}
	opts := Options{Rank: 10, MaxIters: 1, Seed: 43}
	prev, _, err := Init(full.Prefix(prevDims), Options{Rank: 10, MaxIters: 2, Seed: 43})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Step(prev, full, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEmptyStateStepEqualsStaticALS(t *testing.T) {
	// Static ALS is the step from the empty state and nothing else: Init
	// hands back that step's factors and loss trace bit for bit, and the
	// step sweeps the snapshot itself — every entry is complement, so
	// there is nothing to copy out. (internal/goldens holds both to an
	// independent dense reference.)
	x := sparseRandom([]int{10, 9, 8}, 300, 101)
	opts := Options{Rank: 3, MaxIters: 5, Tol: 0, Mu: 0.8, Seed: 103}
	st, stats, err := Step(EmptyState(3, 3), x, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, wantStats, err := Init(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	for m := range st.Factors {
		if d := mat.MaxAbsDiff(st.Factors[m], want.Factors[m]); d != 0 {
			t.Fatalf("mode %d differs from Init by %v", m, d)
		}
	}
	if len(stats.LossTrace) != len(wantStats.LossTrace) {
		t.Fatalf("%d sweeps vs Init's %d", len(stats.LossTrace), len(wantStats.LossTrace))
	}
	for i, l := range wantStats.LossTrace {
		if math.Float64bits(stats.LossTrace[i]) != math.Float64bits(l) {
			t.Fatalf("sweep %d: loss %v vs Init's %v", i, stats.LossTrace[i], l)
		}
	}
	sw, err := NewSweep(EmptyState(3, 3), x, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Complement() != x {
		t.Fatal("empty-prior sweep copied the snapshot instead of sweeping it")
	}
}

func TestStateIORoundtrip(t *testing.T) {
	x := sparseRandom([]int{6, 5, 4}, 60, 105)
	st, _, err := Init(x, Options{Rank: 2, MaxIters: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteState(&buf, st); err != nil {
		t.Fatal(err)
	}
	got, err := ReadState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for m := range st.Factors {
		if mat.MaxAbsDiff(st.Factors[m], got.Factors[m]) != 0 {
			t.Fatalf("mode %d changed in roundtrip", m)
		}
	}
	if _, err := ReadState(strings.NewReader("junk")); err == nil {
		t.Fatal("garbage state accepted")
	}
}

func TestEmptyStatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	EmptyState(0, 2)
}

func TestSecondOrderStream(t *testing.T) {
	// Order 2 is the matrix special case: the machinery must handle it.
	full := denseLowRank([]int{12, 10}, 2, 107)
	opts := Options{Rank: 2, MaxIters: 150, Tol: 1e-12, Seed: 109}
	prev, _, err := Init(full.Prefix([]int{9, 8}), opts)
	if err != nil {
		t.Fatal(err)
	}
	cur, _, err := Step(prev, full, opts)
	if err != nil {
		t.Fatal(err)
	}
	loss := cp.LossAgainst(full, cur.Factors)
	if fit := 1 - loss/full.Norm(); fit < 0.98 {
		t.Fatalf("order-2 streaming fit %v", fit)
	}
}

func TestFifthOrderStep(t *testing.T) {
	full := denseLowRank([]int{5, 4, 4, 3, 3}, 2, 111)
	opts := Options{Rank: 2, MaxIters: 100, Tol: 1e-12, Seed: 113}
	prev, _, err := Init(full.Prefix([]int{4, 3, 3, 3, 2}), opts)
	if err != nil {
		t.Fatal(err)
	}
	cur, _, err := Step(prev, full, opts)
	if err != nil {
		t.Fatal(err)
	}
	loss := cp.LossAgainst(full, cur.Factors)
	if fit := 1 - loss/full.Norm(); fit < 0.95 {
		t.Fatalf("5th-order streaming fit %v", fit)
	}
}
