package dtd

import (
	"math"
	"testing"

	"dismastd/internal/mat"
	"dismastd/internal/tensor"
	"dismastd/internal/xrand"
)

// eventStream draws nnz random events inside dims as flat entry-major
// coords plus values, the Updater's input convention.
func eventStream(dims []int, nnz int, seed uint64) ([]int32, []float64) {
	src := xrand.New(seed)
	n := len(dims)
	coords := make([]int32, 0, nnz*n)
	vals := make([]float64, 0, nnz)
	for e := 0; e < nnz; e++ {
		for _, d := range dims {
			coords = append(coords, int32(src.Intn(d)))
		}
		vals = append(vals, src.Float64()+0.5)
	}
	return coords, vals
}

func anchoredUpdater(t *testing.T, dims []int, o Options) (*Updater, *State) {
	t.Helper()
	st, _, err := Init(sparseRandom(dims, 60, 11), o)
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUpdater(st, o)
	if err != nil {
		t.Fatal(err)
	}
	return u, st
}

// TestUpdaterMaintainsGrams drives batches (including a growth step)
// through Apply and checks the incrementally maintained Gram blocks
// against definitional recomputation from the live factors — the
// invariant every Eq. (5) denominator rests on.
func TestUpdaterMaintainsGrams(t *testing.T) {
	opts := Options{Rank: 3, MaxIters: 20, Seed: 7}
	u, st := anchoredUpdater(t, []int{6, 5, 4}, opts)
	anchor := append([]int(nil), st.Dims...)

	coords, vals := eventStream(st.Dims, 12, 3)
	u.Apply(coords[:4*3], vals[:4])
	if err := u.Grow([]int{8, 5, 5}); err != nil {
		t.Fatal(err)
	}
	grown, gvals := eventStream([]int{8, 5, 5}, 6, 4)
	u.Apply(grown, gvals)
	u.Apply(coords[4*3:], vals[4:])

	if u.Pending() != 18 {
		t.Fatalf("pending = %d, want 18", u.Pending())
	}
	for m, f := range st.Factors {
		a0 := f.SliceRows(0, anchor[m])
		a1 := f.SliceRows(anchor[m], f.Rows)
		if diff := mat.MaxAbsDiff(mat.Gram(a0), u.gram0[m]); diff > 1e-9 {
			t.Fatalf("mode %d: maintained gram0 off by %g", m, diff)
		}
		if diff := mat.MaxAbsDiff(mat.Gram(a1), u.gram1[m]); diff > 1e-9 {
			t.Fatalf("mode %d: maintained gram1 off by %g", m, diff)
		}
		if diff := mat.MaxAbsDiff(mat.CrossGram(u.tilde[m], a0), u.cross[m]); diff > 1e-9 {
			t.Fatalf("mode %d: maintained cross off by %g", m, diff)
		}
	}
}

// TestUpdaterRowMatchesEq5 checks one touched anchor row against the
// update rule computed definitionally: the per-row MTTKRP numerator
// plus the μ-weighted history term, solved against D_0 built from the
// pre-update Gram blocks.
func TestUpdaterRowMatchesEq5(t *testing.T) {
	opts := Options{Rank: 2, MaxIters: 20, Seed: 9}
	u, st := anchoredUpdater(t, []int{5, 4, 3}, opts)
	r := opts.Rank

	// Snapshot the mode-0 denominators before the batch lands.
	u.fill(u.gram0, u.gram1, u.cross, 0, u.opts.Mu, nil)
	hprod := u.hprod.Clone()
	d0 := u.d0.Clone()
	tilde := u.tilde[0].Clone()

	coords := []int32{2, 1, 0, 2, 3, 2}
	vals := []float64{1.25, -0.5}
	factors := make([]*mat.Dense, len(st.Factors))
	for m, f := range st.Factors {
		factors[m] = f.Clone()
	}
	u.Apply(coords, vals)

	// num = Σ_e v_e · ∏_{k≠0} A_k[c_k] + μ · ã_2 · hprod, against the
	// pre-update factors (mode 0 is solved before modes 1 and 2 move).
	num := mat.New(1, r)
	for e := 0; e < 2; e++ {
		for c := 0; c < r; c++ {
			p := vals[e]
			for k := 1; k < 3; k++ {
				p *= factors[k].At(int(coords[e*3+k]), c)
			}
			num.Data[c] += p
		}
	}
	for s := 0; s < r; s++ {
		for c := 0; c < r; c++ {
			num.Data[c] += u.opts.Mu * tilde.At(2, s) * hprod.At(s, c)
		}
	}
	want := mat.New(1, r)
	mat.SolveRightRidgeInto(want, num, d0, mat.NewWorkspace())
	got := st.Factors[0].SliceRows(2, 3)
	if diff := mat.MaxAbsDiff(want, got); diff > 1e-10 {
		t.Fatalf("row update differs from definitional Eq. (5) solve by %g", diff)
	}
}

// TestUpdaterImprovesFit feeds a low-rank tensor's new slices as
// events and checks the bounded-work updates actually move the factors
// toward the data: the reconstruction error over the pending entries
// must drop well below leaving the anchor factors untouched.
func TestUpdaterImprovesFit(t *testing.T) {
	full := denseLowRank([]int{8, 7, 6}, 2, 21)
	seq, err := tensor.NewSequence(full, [][]int{{6, 5, 5}, {8, 7, 6}})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Rank: 2, MaxIters: 80, Tol: 1e-10, Seed: 5}
	st, _, err := Init(seq.Snapshot(0), opts)
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUpdater(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Grow([]int{8, 7, 6}); err != nil {
		t.Fatal(err)
	}
	frozen := st.Clone()
	comp := seq.Snapshot(1).Complement([]int{6, 5, 5})
	idx := make([]int, 3)
	coords := make([]int32, 3)
	before, after := 0.0, 0.0
	for e := 0; e < comp.NNZ(); e++ {
		idx = comp.Coord(e, idx)
		for m, c := range idx {
			coords[m] = int32(c)
		}
		u.Apply(coords, []float64{comp.Val(e)})
	}
	for e := 0; e < comp.NNZ(); e++ {
		idx = comp.Coord(e, idx)
		v := comp.Val(e)
		before += sq(v - reconstructAt(frozen.Factors, idx))
		after += sq(v - reconstructAt(st.Factors, idx))
	}
	if u.RowsTouched() == 0 {
		t.Fatal("no rows touched")
	}
	if after > before*0.25 {
		t.Fatalf("event updates left pending-region error at %g (untouched %g)", math.Sqrt(after), math.Sqrt(before))
	}
}

func sq(v float64) float64 { return v * v }

func reconstructAt(factors []*mat.Dense, idx []int) float64 {
	out := 0.0
	for c := 0; c < factors[0].Cols; c++ {
		p := 1.0
		for m, f := range factors {
			p *= f.At(idx[m], c)
		}
		out += p
	}
	return out
}

// TestUpdaterResetReanchors checks Reset against a freshly built
// updater: same anchor, empty pending region, zeroed growth grams.
func TestUpdaterResetReanchors(t *testing.T) {
	opts := Options{Rank: 2, MaxIters: 10, Seed: 3}
	u, st := anchoredUpdater(t, []int{5, 4, 3}, opts)
	coords, vals := eventStream(st.Dims, 8, 6)
	u.Apply(coords, vals)

	u.Reset(st)
	fresh, err := NewUpdater(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if u.Pending() != 0 || u.RowsTouched() != 0 {
		t.Fatal("Reset kept pending state")
	}
	for m := range st.Factors {
		if mat.MaxAbsDiff(u.gram0[m], fresh.gram0[m]) != 0 ||
			mat.MaxAbsDiff(u.gram1[m], fresh.gram1[m]) != 0 ||
			mat.MaxAbsDiff(u.cross[m], fresh.cross[m]) != 0 ||
			mat.MaxAbsDiff(u.tilde[m], fresh.tilde[m]) != 0 {
			t.Fatalf("mode %d: Reset state differs from a fresh updater", m)
		}
	}
}

func TestUpdaterGrowRejectsShrink(t *testing.T) {
	u, _ := anchoredUpdater(t, []int{5, 4, 3}, Options{Rank: 2, MaxIters: 5})
	if err := u.Grow([]int{4, 4, 3}); err == nil {
		t.Fatal("shrinking Grow did not error")
	}
	if err := u.Grow([]int{5, 4}); err == nil {
		t.Fatal("order-changing Grow did not error")
	}
}

// TestUpdaterGrowAppendsInPlace grows one mode a row at a time — the
// serving workload's pattern. The factor must stay bitwise what
// stacking the same random rows gives, be reallocated a handful of
// times rather than once per row, and never hold more than an eighth
// of its rows as slack.
func TestUpdaterGrowAppendsInPlace(t *testing.T) {
	opts := Options{Rank: 3, MaxIters: 2, Seed: 9}
	u, st := anchoredUpdater(t, []int{400, 5, 4}, opts)
	ref := st.Factors[0].Clone()
	src := xrand.New(opts.Seed)
	reallocs := 0
	for step := 1; step <= 100; step++ {
		before := &st.Factors[0].Data[0]
		if err := u.Grow([]int{400 + step, 5, 4}); err != nil {
			t.Fatal(err)
		}
		f := st.Factors[0]
		if &f.Data[0] != before {
			reallocs++
		}
		if spare := cap(f.Data)/f.Cols - f.Rows; spare > f.Rows/8 {
			t.Fatalf("step %d: %d spare rows behind %d", step, spare, f.Rows)
		}
		ref = mat.StackRows(ref, mat.RandomUniform(1, opts.Rank, src))
		if f.Rows != ref.Rows || mat.MaxAbsDiff(f, ref) != 0 {
			t.Fatalf("step %d: grown factor differs from the stacked reference", step)
		}
	}
	if reallocs > 3 {
		t.Fatalf("100 one-row growths reallocated the factor %d times", reallocs)
	}
}

// TestUpdaterGrowLeavesForeignCapacityAlone: a live factor that is a
// view into a larger array has capacity Grow did not allocate; growth
// must copy out of it, not append over the owner's data.
func TestUpdaterGrowLeavesForeignCapacityAlone(t *testing.T) {
	u, st := anchoredUpdater(t, []int{6, 5, 4}, Options{Rank: 2, MaxIters: 2, Seed: 3})
	owner := mat.New(8, 2)
	copy(owner.Data, st.Factors[0].Data)
	owner.Row(6)[0], owner.Row(7)[1] = -1, -2
	st.Factors[0] = owner.SliceRows(0, 6)
	u.Reset(st)
	if err := u.Grow([]int{7, 5, 4}); err != nil {
		t.Fatal(err)
	}
	if owner.Row(6)[0] != -1 || owner.Row(7)[1] != -2 {
		t.Fatalf("Grow wrote into capacity it does not own: %v", owner.Data[12:])
	}
}

// TestUpdaterLargeReverseOrderedBatch feeds one batch of 1e5 events
// whose mode-0 coordinates arrive strictly descending — the worst case
// for the hand-rolled insertion sort Apply used to run under the
// writer lock, which needed ~5e9 element moves here. Every distinct
// row is still solved exactly once per mode, in ascending order.
func TestUpdaterLargeReverseOrderedBatch(t *testing.T) {
	const rows = 100000
	dims := []int{rows, 3, 3}
	u, _ := anchoredUpdater(t, dims, Options{Rank: 2, MaxIters: 2, Seed: 4})
	coords := make([]int32, 0, 3*rows)
	vals := make([]float64, rows)
	for e := 0; e < rows; e++ {
		coords = append(coords, int32(rows-1-e), int32(e%3), int32(e%2))
		vals[e] = 1
	}
	u.Apply(coords, vals)
	if got, want := u.RowsTouched(), int64(rows+3+2); got != want {
		t.Fatalf("rows touched = %d, want %d", got, want)
	}
	// touched still holds the last mode's rows: sorted and deduplicated.
	if len(u.touched) != 2 || u.touched[0] != 0 || u.touched[1] != 1 {
		t.Fatalf("last mode's touched rows = %v, want [0 1]", u.touched)
	}
}

// TestUpdaterApplyNoAllocWarm pins the acceptance criterion: a warmed
// steady-state micro-batch update performs zero heap allocations.
func TestUpdaterApplyNoAllocWarm(t *testing.T) {
	opts := Options{Rank: 4, MaxIters: 10, Seed: 2}
	u, st := anchoredUpdater(t, []int{8, 8, 8}, opts)
	coords, vals := eventStream(st.Dims, 6, 13)
	for i := 0; i < 4; i++ { // warm delta capacity and workspace slots
		u.Apply(coords, vals)
	}
	u.Reset(st)
	allocs := testing.AllocsPerRun(50, func() {
		u.Reset(st)
		for i := 0; i < 3; i++ {
			u.Apply(coords, vals)
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed Apply allocates %v per run", allocs)
	}
}

// TestSolveRowMatchesFactoredRange holds the Updater's in-place row
// solve to mat.SolveRightFactoredRange, the transpose-through-workspace
// route it replaced, bit for bit: R in {1, 2, 10, 17}, factors from
// mat.RidgeCholeskyInto of random SPD matrices — dense ones,
// block-diagonal ones (whose factors hold exact zeros below the
// diagonal, which both solves skip) and rank-deficient ones (which take
// the ridge).
func TestSolveRowMatchesFactoredRange(t *testing.T) {
	src := xrand.New(31)
	ws := mat.NewWorkspace()
	zeros := 0
	for _, r := range []int{1, 2, 10, 17} {
		for trial := 0; trial < 60; trial++ {
			rows := r + 2
			if trial%3 == 2 {
				rows = max(1, r/2) // rank-deficient Gram: the ridge path
			}
			d := mat.New(r, r)
			mat.GramInto(d, mat.RandomGaussian(rows, r, src))
			if trial%3 == 1 {
				blk := 1 + trial%4
				for i := 0; i < r; i++ {
					for j := 0; j < r; j++ {
						if i/blk != j/blk {
							d.Set(i, j, 0)
						}
					}
				}
			}
			l := mat.New(r, r)
			mat.RidgeCholeskyInto(l, d, ws)
			for i := 0; i < r; i++ {
				for j := 0; j < i; j++ {
					if l.At(i, j) == 0 {
						zeros++
					}
				}
			}
			want := mat.RandomGaussian(1, r, src)
			got := want.Clone()
			mat.SolveRightFactoredRange(want, want, l, 0, 1, ws)
			solveRow(l, got.Row(0))
			for c := range got.Data {
				if math.Float64bits(got.Data[c]) != math.Float64bits(want.Data[c]) {
					t.Fatalf("R %d trial %d col %d: in-place solve %v, SolveRightFactoredRange %v", r, trial, c, got.Data[c], want.Data[c])
				}
			}
		}
	}
	if zeros == 0 {
		t.Fatal("no factor held a zero below its diagonal; the skip is untested")
	}
}

// BenchmarkSolveRow times one R = 10 row solve three ways: in place, as
// the Updater runs it; through mat.CholeskySolveColumns on the row as a
// one-column block of stride 1, the same operations without the
// dedicated loop; and through SolveRightFactoredRange's workspace
// transpose, as the Updater ran it before.
func BenchmarkSolveRow(b *testing.B) {
	const r = 10
	src := xrand.New(5)
	d := mat.New(r, r)
	mat.GramInto(d, mat.RandomGaussian(2*r, r, src))
	ws := mat.NewWorkspace()
	l := mat.New(r, r)
	mat.RidgeCholeskyInto(l, d, ws)
	rhs := mat.RandomGaussian(1, r, src)
	x := mat.New(1, r)
	b.Run("in_place", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(x.Data, rhs.Data)
			solveRow(l, x.Data)
		}
	})
	b.Run("columns_stride1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(x.Data, rhs.Data)
			mat.CholeskySolveColumns(l, x.Data, 1, 0, 1)
		}
	})
	b.Run("factored_range", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(x.Data, rhs.Data)
			mat.SolveRightFactoredRange(x, x, l, 0, 1, ws)
		}
	})
}

// TestAnchorStepMatchesPlainState: Anchor hands the next sweep the Grams
// Reset took, and a step from it is bit for bit a step from a plain
// State holding the same factors — in the factors and in the loss
// trace — before and after a Reset onto grown factors.
func TestAnchorStepMatchesPlainState(t *testing.T) {
	opts := Options{Rank: 3, MaxIters: 6, Seed: 9}
	u, st := anchoredUpdater(t, []int{6, 5, 4}, opts)
	dims := []int{6, 5, 4}
	for round := 0; round < 2; round++ {
		coords, vals := eventStream(dims, 10, uint64(20+round))
		u.Apply(coords, vals)
		dims = []int{dims[0] + 2, dims[1], dims[2] + 1}
		if err := u.Grow(dims); err != nil {
			t.Fatal(err)
		}

		anchor := u.Anchor()
		plain := &State{Dims: append([]int(nil), anchor.Dims...)}
		for m, f := range anchor.Factors {
			if anchor.grams == nil || !sameBits(anchor.grams[m].Data, mat.Gram(f).Data) {
				t.Fatalf("round %d mode %d: Anchor carries no Gram, or not mat.Gram's bits", round, m)
			}
			plain.Factors = append(plain.Factors, f.Clone())
		}
		snap := sparseRandom(dims, 80, uint64(30+round))
		got, gotStats, err := Step(anchor, snap, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, wantStats, err := Step(plain, snap, opts)
		if err != nil {
			t.Fatal(err)
		}
		for m := range want.Factors {
			if !sameBits(got.Factors[m].Data, want.Factors[m].Data) {
				t.Fatalf("round %d mode %d: a step from Anchor differs from a step from a plain State", round, m)
			}
		}
		if !sameBits(gotStats.LossTrace, wantStats.LossTrace) {
			t.Fatalf("round %d: loss trace %v from Anchor, %v from a plain State", round, gotStats.LossTrace, wantStats.LossTrace)
		}
		st = got
		u.Reset(st)
	}
}

// TestResetKeepsAnchorStorage: Reset onto factors that grew within the
// anchor copy's spare rows copies them, bit for bit, into the storage
// the copy already holds instead of allocating the whole factor again.
func TestResetKeepsAnchorStorage(t *testing.T) {
	opts := Options{Rank: 3, MaxIters: 4, Seed: 4}
	dims := []int{40, 24, 16}
	u, _ := anchoredUpdater(t, dims, opts)
	before := make([]*float64, len(dims))
	for m := range dims {
		before[m] = &u.tilde[m].Data[:1][0]
	}
	coords, vals := eventStream(dims, 30, 7)
	u.Apply(coords, vals)
	grown := []int{dims[0] + 3, dims[1] + 1, dims[2]}
	if err := u.Grow(grown); err != nil {
		t.Fatal(err)
	}
	st, _, err := Step(u.Anchor(), sparseRandom(grown, 90, 8), opts)
	if err != nil {
		t.Fatal(err)
	}
	u.Reset(st)
	for m, f := range st.Factors {
		if u.tilde[m].Rows != grown[m] || !sameBits(u.tilde[m].Data, f.Data[:f.Rows*f.Cols]) {
			t.Fatalf("mode %d: the anchor after Reset is not the new factor", m)
		}
		if &u.tilde[m].Data[0] != before[m] {
			t.Fatalf("mode %d: Reset reallocated an anchor that had room for %d rows", m, grown[m])
		}
	}
}
