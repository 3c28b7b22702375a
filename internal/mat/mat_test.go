package mat

import (
	"math"
	"testing"

	"dismastd/internal/xrand"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewShapes(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("unexpected shape %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1, 2) did not panic")
		}
	}()
	New(-1, 2)
}

func TestNewFromPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFrom with wrong length did not panic")
		}
	}()
	NewFrom(2, 2, []float64{1, 2, 3})
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("Set/At roundtrip failed")
	}
	row := m.Row(1)
	row[0] = 5
	if m.At(1, 0) != 5 {
		t.Fatal("Row is not a view")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := NewFrom(1, 2, []float64{1, 2})
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

// mul and transpose are the tests' allocating conveniences over the
// in-place kernels.
func mul(a, b *Dense) *Dense {
	out := New(a.Rows, b.Cols)
	MulInto(out, a, b)
	return out
}

func transpose(a *Dense) *Dense {
	out := New(a.Cols, a.Rows)
	TransposeInto(out, a)
	return out
}

func TestAddSubScale(t *testing.T) {
	a := NewFrom(2, 2, []float64{1, 2, 3, 4})
	b := NewFrom(2, 2, []float64{5, 6, 7, 8})
	sum := New(2, 2)
	sum.Add(a, b)
	if sum.At(1, 1) != 12 {
		t.Fatalf("Add wrong: %v", sum.Data)
	}
	diff := New(2, 2)
	diff.Sub(b, a)
	if diff.At(0, 0) != 4 {
		t.Fatalf("Sub wrong: %v", diff.Data)
	}
	sc := New(2, 2)
	sc.Scale(2, a)
	if sc.At(1, 0) != 6 {
		t.Fatalf("Scale wrong: %v", sc.Data)
	}
}

func TestMulKnown(t *testing.T) {
	a := NewFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewFrom(3, 2, []float64{7, 8, 9, 10, 11, 12})
	p := mul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if p.Data[i] != v {
			t.Fatalf("Mul[%d] = %v, want %v", i, p.Data[i], v)
		}
	}
}

func TestMulIdentity(t *testing.T) {
	src := xrand.New(1)
	a := RandomGaussian(4, 4, src)
	eye := New(4, 4)
	eye.SetIdentity()
	p := mul(a, eye)
	if MaxAbsDiff(a, p) != 0 {
		t.Fatal("A * I != A")
	}
}

func TestGramSymmetricPSD(t *testing.T) {
	src := xrand.New(2)
	a := RandomGaussian(10, 4, src)
	g := Gram(a)
	for i := 0; i < 4; i++ {
		if g.At(i, i) < 0 {
			t.Fatalf("Gram diagonal negative at %d", i)
		}
		for j := 0; j < 4; j++ {
			if !almostEqual(g.At(i, j), g.At(j, i), 1e-12) {
				t.Fatalf("Gram not symmetric at (%d,%d)", i, j)
			}
		}
	}
	// Matches Aᵀ·A computed the long way.
	want := mul(transpose(a), a)
	if MaxAbsDiff(g, want) > 1e-12 {
		t.Fatal("Gram != AᵀA")
	}
}

// TestGramIntoBitEqualsCrossGramOfItself pins the upper-triangle-and-
// mirror GramInto to the full product it replaced, bit for bit, on
// inputs that exercise the zero-skip: exact zeros and negative zeros
// scattered through signed values, columns that are entirely zero.
func TestGramIntoBitEqualsCrossGramOfItself(t *testing.T) {
	src := xrand.New(31)
	for _, r := range []int{1, 3, 10, 16} {
		for trial := 0; trial < 50; trial++ {
			a := RandomGaussian(src.Intn(40), r, src)
			for i := range a.Data {
				switch src.Intn(6) {
				case 0:
					a.Data[i] = 0
				case 1:
					a.Data[i] = math.Copysign(0, -1)
				}
			}
			if r > 1 && trial%5 == 0 {
				for i := 0; i < a.Rows; i++ {
					a.Set(i, r/2, 0)
				}
			}
			got, want := New(r, r), New(r, r)
			for i := range got.Data {
				got.Data[i] = math.NaN() // GramInto must overwrite, not accumulate
			}
			GramInto(got, a)
			CrossGramInto(want, a, a)
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("R=%d trial %d: entry (%d,%d) is %x, CrossGramInto(a, a) gives %x",
						r, trial, i/r, i%r, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
				}
			}
			if g := Gram(a); MaxAbsDiff(g, got) != 0 {
				t.Fatalf("R=%d trial %d: Gram and GramInto disagree", r, trial)
			}
		}
	}
}

func TestCrossGramMatchesTransposeMul(t *testing.T) {
	src := xrand.New(3)
	a := RandomGaussian(7, 3, src)
	b := RandomGaussian(7, 5, src)
	got := CrossGram(a, b)
	want := mul(transpose(a), b)
	if MaxAbsDiff(got, want) > 1e-12 {
		t.Fatal("CrossGram != AᵀB")
	}
}

func TestAccumulateCrossGramPartitions(t *testing.T) {
	// Summing partial Grams over row blocks equals the full Gram —
	// the identity behind the paper's all-to-all reduction.
	src := xrand.New(4)
	a := RandomGaussian(9, 3, src)
	b := RandomGaussian(9, 3, src)
	full := CrossGram(a, b)
	sum := New(3, 3)
	for _, blk := range [][2]int{{0, 4}, {4, 7}, {7, 9}} {
		accumulateCrossGram(sum, a.SliceRows(blk[0], blk[1]), b.SliceRows(blk[0], blk[1]))
	}
	if MaxAbsDiff(full, sum) > 1e-12 {
		t.Fatal("partial Gram aggregation != full Gram")
	}
}

func TestHadamard(t *testing.T) {
	a := NewFrom(2, 2, []float64{1, 2, 3, 4})
	b := NewFrom(2, 2, []float64{2, 3, 4, 5})
	h := New(2, 2)
	h.Hadamard(a, b)
	want := []float64{2, 6, 12, 20}
	for i := range want {
		if h.Data[i] != want[i] {
			t.Fatalf("Hadamard[%d] = %v", i, h.Data[i])
		}
	}
	all := HadamardAll(a, b, a)
	if all.At(1, 1) != 80 {
		t.Fatalf("HadamardAll wrong: %v", all.Data)
	}
}

func TestTransposeInvolution(t *testing.T) {
	src := xrand.New(6)
	a := RandomGaussian(3, 5, src)
	if MaxAbsDiff(a, transpose(transpose(a))) != 0 {
		t.Fatal("transpose twice is not identity")
	}
}

func TestNormsAndReductions(t *testing.T) {
	a := NewFrom(2, 2, []float64{3, 4, 0, 0})
	if SumAll(a) != 7 {
		t.Fatalf("SumAll = %v", SumAll(a))
	}
}

func TestStackAndSliceRows(t *testing.T) {
	a := NewFrom(2, 2, []float64{1, 2, 3, 4})
	b := NewFrom(1, 2, []float64{5, 6})
	s := StackRows(a, b)
	if s.Rows != 3 || s.At(2, 1) != 6 {
		t.Fatalf("StackRows wrong: %+v", s)
	}
	top := s.SliceRows(0, 2)
	if MaxAbsDiff(top, a) != 0 {
		t.Fatal("SliceRows top mismatch")
	}
	top.Set(0, 0, 9)
	if s.At(0, 0) != 9 {
		t.Fatal("SliceRows is not a view")
	}
}

func TestCholeskyReconstruction(t *testing.T) {
	src := xrand.New(7)
	b := RandomGaussian(8, 4, src)
	a := Gram(b) // PSD; almost surely PD with 8 independent rows
	for i := 0; i < 4; i++ {
		a.Set(i, i, a.At(i, i)+0.1)
	}
	l := New(4, 4)
	if err := CholeskyInto(l, a); err != nil {
		t.Fatal(err)
	}
	recon := mul(l, transpose(l))
	if MaxAbsDiff(a, recon) > 1e-10 {
		t.Fatalf("LLᵀ differs from A by %v", MaxAbsDiff(a, recon))
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewFrom(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if err := CholeskyInto(New(2, 2), a); err != ErrNotSPD {
		t.Fatalf("expected ErrNotSPD, got %v", err)
	}
}

func TestSolveSPD(t *testing.T) {
	src := xrand.New(8)
	b := RandomGaussian(10, 5, src)
	a := Gram(b)
	for i := 0; i < 5; i++ {
		a.Set(i, i, a.At(i, i)+0.5)
	}
	rhs := RandomGaussian(5, 3, src)
	x := New(5, 3)
	if err := SolveSPDInto(x, a, rhs, NewWorkspace()); err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(mul(a, x), rhs) > 1e-9 {
		t.Fatalf("A·X differs from B by %v", MaxAbsDiff(mul(a, x), rhs))
	}
}

func TestSolveRightRidgeMatchesInverse(t *testing.T) {
	src := xrand.New(9)
	b := RandomGaussian(12, 4, src)
	d := Gram(b)
	for i := 0; i < 4; i++ {
		d.Set(i, i, d.At(i, i)+1)
	}
	m := RandomGaussian(6, 4, src)
	got := New(6, 4)
	SolveRightRidgeInto(got, m, d, NewWorkspace())
	// X = M·D⁻¹ exactly when X·D = M.
	if diff := MaxAbsDiff(mul(got, d), m); diff > 1e-9 {
		t.Fatalf("SolveRightRidgeInto differs from M·D⁻¹: X·D is off M by %v", diff)
	}
}

func TestSolveRightRidgeSingularFallback(t *testing.T) {
	// Rank-1 Gram: plain Cholesky fails, the ridge fallback must still
	// return finite values.
	ones := NewFrom(3, 2, []float64{1, 1, 1, 1, 1, 1})
	d := Gram(ones)
	m := NewFrom(2, 2, []float64{1, 2, 3, 4})
	got := New(2, 2)
	SolveRightRidgeInto(got, m, d, NewWorkspace())
	for _, v := range got.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite entry %v", v)
		}
	}
}

func TestMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MulInto with mismatched inner dims did not panic")
		}
	}()
	MulInto(New(2, 3), New(2, 3), New(2, 3))
}

func BenchmarkGram(b *testing.B) {
	a := RandomGaussian(10000, 10, xrand.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Gram(a)
	}
}
