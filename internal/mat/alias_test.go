package mat

import (
	"strings"
	"testing"
)

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func mustPanicContaining(t *testing.T, what, sub string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s did not panic", what)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, sub) {
			t.Fatalf("%s panicked with %v, want message containing %q", what, r, sub)
		}
	}()
	f()
}

func seqDense(r, c int) *Dense {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = float64(i + 1)
	}
	return m
}

func TestOverlaps(t *testing.T) {
	m := seqDense(4, 3)
	other := seqDense(4, 3)
	if Overlaps(m, other) {
		t.Fatal("independent matrices reported as overlapping")
	}
	if !Overlaps(m, m) {
		t.Fatal("a matrix does not overlap itself")
	}
	a := m.SliceRows(0, 3)
	b := m.SliceRows(1, 4)
	if !Overlaps(a, b) {
		t.Fatal("shifted views of the same rows reported disjoint")
	}
	top := m.SliceRows(0, 2)
	bottom := m.SliceRows(2, 4)
	if Overlaps(top, bottom) {
		t.Fatal("adjacent disjoint views reported overlapping")
	}
	if !Overlaps(m, top) {
		t.Fatal("view does not overlap its parent")
	}
}

func TestElementwiseAliasContract(t *testing.T) {
	m := seqDense(4, 3)
	b := seqDense(4, 3)

	// Exact aliasing is allowed: dst may be one of the inputs.
	exact := seqDense(4, 3)
	exact.Add(exact, b)

	// Partial overlap panics instead of silently reading just-written
	// values.
	lo := m.SliceRows(0, 3)
	hi := m.SliceRows(1, 4)
	mustPanicContaining(t, "Add on shifted views", "partially overlaps", func() { lo.Add(lo, hi) })
	mustPanicContaining(t, "Hadamard on shifted views", "partially overlaps", func() { lo.Hadamard(hi, lo) })
	mustPanicContaining(t, "CopyFrom on shifted views", "partially overlaps", func() { lo.CopyFrom(hi) })
	mustPanicContaining(t, "AddScaled on shifted views", "partially overlaps", func() { lo.AddScaled(2, hi) })
	mustPanicContaining(t, "Scale on shifted views", "partially overlaps", func() { lo.Scale(2, hi) })
	sub := seqDense(3, 3)
	mustPanicContaining(t, "Sub on shifted views", "partially overlaps", func() { lo.Sub(sub, hi) })
}

func TestGatherKernelsRejectAnyAlias(t *testing.T) {
	a := seqDense(3, 3)
	b := seqDense(3, 3)

	mustPanicContaining(t, "MulInto dst==a", "aliases", func() { MulInto(a, a, b) })
	mustPanicContaining(t, "MulInto dst==b", "aliases", func() { MulInto(b, a, b) })
	mustPanicContaining(t, "GramInto dst==a", "aliases", func() { GramInto(a, a) })
	mustPanicContaining(t, "CrossGramInto dst==b", "aliases", func() { CrossGramInto(b, a, b) })
	mustPanicContaining(t, "AccumulateCrossGram dst==a", "aliases", func() { AccumulateCrossGram(a, a, b) })
	mustPanicContaining(t, "TransposeInto dst==a", "aliases", func() { TransposeInto(a, a) })
	mustPanicContaining(t, "CholeskyInto dst==a", "aliases", func() { _ = CholeskyInto(a, a) })
}

func TestSolveAliasContract(t *testing.T) {
	// An SPD system and a right-hand side.
	d := NewFrom(2, 2, []float64{4, 1, 1, 3})
	m := NewFrom(3, 2, []float64{1, 2, 3, 4, 5, 6})
	ws := NewWorkspace()

	// SolveRightRidgeInto: dst may alias m exactly...
	want := New(3, 2)
	SolveRightRidgeInto(want, m, d, ws)
	aliased := m.Clone()
	SolveRightRidgeInto(aliased, aliased, d, ws)
	for i := range want.Data {
		if want.Data[i] != aliased.Data[i] {
			t.Fatalf("aliased SolveRightRidgeInto differs at %d: %v vs %v", i, aliased.Data[i], want.Data[i])
		}
	}
	// ...but never d, and never a partial overlap of m.
	mustPanicContaining(t, "SolveRightRidgeInto dst==d", "aliases", func() { SolveRightRidgeInto(d, seqDense(2, 2), d, ws) })
	big := seqDense(4, 2)
	mustPanicContaining(t, "SolveRightRidgeInto partial overlap", "partially overlaps",
		func() { SolveRightRidgeInto(big.SliceRows(0, 3), big.SliceRows(1, 4), d, ws) })

	// SolveSPDInto: dst may alias b exactly, never a.
	bvec := NewFrom(2, 1, []float64{5, 7})
	wantX := New(2, 1)
	if err := SolveSPDInto(wantX, d, bvec, ws); err != nil {
		t.Fatal(err)
	}
	x := bvec.Clone()
	if err := SolveSPDInto(x, d, x, ws); err != nil {
		t.Fatal(err)
	}
	for i := range wantX.Data {
		if wantX.Data[i] != x.Data[i] {
			t.Fatalf("aliased SolveSPDInto differs at %d: %v vs %v", i, x.Data[i], wantX.Data[i])
		}
	}
	mustPanicContaining(t, "SolveSPDInto dst==a", "aliases", func() { _ = SolveSPDInto(d, d, bvec, ws) })
}

func TestIntoKernelsMatchAllocatingForms(t *testing.T) {
	a := seqDense(4, 3)

	g := New(3, 3)
	GramInto(g, a)
	wantG := Gram(a)
	for i := range wantG.Data {
		if g.Data[i] != wantG.Data[i] {
			t.Fatal("GramInto differs from Gram")
		}
	}

	h := New(3, 3)
	HadamardAllInto(h, g, wantG, g)
	wantH := HadamardAll(g, wantG, g)
	for i := range wantH.Data {
		if h.Data[i] != wantH.Data[i] {
			t.Fatal("HadamardAllInto differs from HadamardAll")
		}
	}
}
