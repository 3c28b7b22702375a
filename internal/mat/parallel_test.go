package mat

import (
	"math"
	"testing"

	"dismastd/internal/par"
	"dismastd/internal/xrand"
)

func randomDense(r, c int, seed uint64) *Dense {
	src := xrand.New(seed)
	m := RandomUniform(r, c, src)
	// Sprinkle exact zeros so the av==0 skip paths run.
	for i := 0; i < len(m.Data); i += 7 {
		m.Data[i] = 0
	}
	return m
}

func sameBits(t *testing.T, name string, got, want *Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %x, want %x", name, i, v, want.Data[i])
		}
	}
}

// TestParKernelsBitwiseAcrossThreads pins the deterministic-reduction
// rule: the pooled kernel must reproduce the sequential kernel's bits
// exactly, at every thread count, because it partitions output rows
// without changing any accumulation order.
func TestParKernelsBitwiseAcrossThreads(t *testing.T) {
	a := randomDense(37, 5, 1)
	b := randomDense(37, 5, 2)
	wantGram := CrossGram(a, b)
	wantSelf := Gram(a)

	for _, threads := range []int{1, 2, 3, 8} {
		pool := par.New(threads)
		pk := NewParKernels(pool)

		gotGram := New(a.Cols, b.Cols)
		pk.CrossGramInto(gotGram, a, b)
		sameBits(t, "CrossGramInto", gotGram, wantGram)

		gotSelf := New(a.Cols, a.Cols)
		pk.GramInto(gotSelf, a)
		sameBits(t, "GramInto", gotSelf, wantSelf)

		pool.Close()
	}
}

// TestSolveRightFactoredRangeMatchesFull checks that solving disjoint
// row ranges against one shared factor reassembles the full solve
// bit-for-bit.
func TestSolveRightFactoredRangeMatchesFull(t *testing.T) {
	m := randomDense(23, 4, 7)
	d := Gram(randomDense(11, 4, 8))
	ws := NewWorkspace()
	want := New(m.Rows, m.Cols)
	SolveRightRidgeInto(want, m, d, ws)

	l := New(d.Rows, d.Rows)
	RidgeCholeskyInto(l, d, ws)
	got := New(m.Rows, m.Cols)
	for _, cut := range [][2]int{{0, 5}, {5, 6}, {6, 23}} {
		SolveRightFactoredRange(got, m, l, cut[0], cut[1], ws)
	}
	sameBits(t, "ranged solve", got, want)
}

// TestParKernelsSteadyStateAllocFree pins that dispatching the pooled
// kernels allocates nothing: the task struct lives on the ParKernels.
func TestParKernelsSteadyStateAllocFree(t *testing.T) {
	pool := par.New(4)
	defer pool.Close()
	pk := NewParKernels(pool)

	a := randomDense(64, 6, 11)
	b := randomDense(64, 6, 12)
	gram, cross := New(6, 6), New(6, 6)
	pass := func() {
		pk.GramInto(gram, a)
		pk.CrossGramInto(cross, a, b)
	}
	pass()
	if allocs := testing.AllocsPerRun(10, pass); allocs != 0 {
		t.Fatalf("steady-state ParKernels sweep allocates %v times, want 0", allocs)
	}
}
