// Package mat implements the dense matrix kernels that CP-ALS and the
// DisMASTD update rules are built from: Gram products, Hadamard
// products, elementwise reductions, and small SPD solves.
//
// Everything is hand-rolled on float64 with row-major storage. The
// matrices that flow through the hot paths are either factor blocks
// (I_n x R with small R) or R x R Gram matrices, so the kernels favour
// simplicity and cache-friendly row traversal over blocking tricks.
package mat

import (
	"fmt"
	"math"

	"dismastd/internal/xrand"
)

// Dense is a row-major dense matrix. The zero value is an empty matrix;
// use New or NewFrom to construct. Data is what the cluster codecs and
// the state file move, as raw float64 bit patterns.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// New returns a zeroed r x c matrix. It panics if r or c is negative.
func New(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: New(%d, %d) with negative dimension", r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// NewFrom wraps data as an r x c matrix without copying. It panics if
// len(data) != r*c.
func NewFrom(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: NewFrom(%d, %d) with %d elements", r, c, len(data)))
	}
	return &Dense{Rows: r, Cols: c, Data: data}
}

// SetIdentity overwrites the square matrix m with the identity.
func (m *Dense) SetIdentity() {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("mat: SetIdentity on non-square %dx%d", m.Rows, m.Cols))
	}
	m.Zero()
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+i] = 1
	}
}

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a mutable slice view into the matrix.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m. The copy appends m's values to an
// empty slice, so its storage is not zeroed before it is written.
func (m *Dense) Clone() *Dense {
	return &Dense{Rows: m.Rows, Cols: m.Cols, Data: append([]float64{}, m.Data[:m.Rows*m.Cols]...)}
}

// CopyFrom copies src into m. Dimensions must match. m may be src
// itself but must not partially overlap it.
func (m *Dense) CopyFrom(src *Dense) {
	m.mustSameShape(src, "CopyFrom")
	mustElementwiseAlias("CopyFrom", m, src)
	copy(m.Data, src.Data)
}

// Zero sets every element of m to zero.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

func (m *Dense) mustSameShape(o *Dense, op string) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// Add stores a + b into m. m may alias a or b exactly, never partially.
func (m *Dense) Add(a, b *Dense) {
	a.mustSameShape(b, "Add")
	m.mustSameShape(a, "Add")
	mustElementwiseAlias("Add", m, a)
	mustElementwiseAlias("Add", m, b)
	for i := range m.Data {
		m.Data[i] = a.Data[i] + b.Data[i]
	}
}

// Scale stores s*a into m. m may alias a exactly, never partially.
func (m *Dense) Scale(s float64, a *Dense) {
	m.mustSameShape(a, "Scale")
	mustElementwiseAlias("Scale", m, a)
	for i := range m.Data {
		m.Data[i] = s * a.Data[i]
	}
}

// MulInto computes a*b into dst, which must be a.Rows x b.Cols and must
// not alias a or b.
func MulInto(dst, a, b *Dense) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul inner dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulInto destination %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	mustDisjoint("MulInto", dst, a)
	mustDisjoint("MulInto", dst, b)
	dst.Zero()
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := dst.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// Gram computes AᵀA, an a.Cols x a.Cols symmetric matrix.
func Gram(a *Dense) *Dense {
	out := New(a.Cols, a.Cols)
	GramInto(out, a)
	return out
}

// GramInto computes AᵀA into dst, which must be a.Cols x a.Cols and
// must not alias a. It accumulates the upper triangle and mirrors it,
// and is bit for bit CrossGramInto(dst, a, a): a·b is b·a, every entry
// still sums its rows in ascending order, and the terms the two
// triangles skip differently (a zero on one side of the product, not
// the other) are ±0, which an accumulator that started at +0 absorbs
// without changing.
func GramInto(dst, a *Dense) {
	if dst.Rows != a.Cols || dst.Cols != a.Cols {
		panic("mat: GramInto destination shape mismatch")
	}
	mustDisjoint("GramInto", dst, a)
	dst.Zero()
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for r, av := range row {
			if av == 0 {
				continue
			}
			drow := dst.Row(r)[r:]
			for c, bv := range row[r:] {
				drow[c] += av * bv
			}
		}
	}
	MirrorUpper(dst)
}

// MirrorUpper copies the strict upper triangle of the square matrix m
// onto its lower triangle.
func MirrorUpper(m *Dense) {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("mat: MirrorUpper on non-square %dx%d", m.Rows, m.Cols))
	}
	n := m.Cols
	for r := 0; r < n; r++ {
		for c := r + 1; c < n; c++ {
			m.Data[c*n+r] = m.Data[r*n+c]
		}
	}
}

// CrossGram computes AᵀB. A and B must have the same number of rows;
// the result is a.Cols x b.Cols. This is the row-wise product the paper
// aggregates with an all-to-all reduction (Section IV-B3).
func CrossGram(a, b *Dense) *Dense {
	out := New(a.Cols, b.Cols)
	CrossGramInto(out, a, b)
	return out
}

// CrossGramInto computes AᵀB into dst, which must be a.Cols x b.Cols
// and must not alias a or b.
func CrossGramInto(dst, a, b *Dense) {
	dst.Zero()
	accumulateCrossGram(dst, a, b)
}

// accumulateCrossGram adds AᵀB into dst, which must be a.Cols x b.Cols
// and must not alias a or b (it scatters into dst rows while reading a
// and b rows, so aliasing would fold partial results back into the
// inputs). It is the building block for partial Gram aggregation across
// workers.
func accumulateCrossGram(dst, a, b *Dense) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: accumulateCrossGram row mismatch %d vs %d", a.Rows, b.Rows))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic("mat: accumulateCrossGram destination shape mismatch")
	}
	mustDisjoint("accumulateCrossGram", dst, a)
	mustDisjoint("accumulateCrossGram", dst, b)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		brow := b.Row(i)
		for r, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst.Row(r)
			for c, bv := range brow {
				drow[c] += av * bv
			}
		}
	}
}

// Hadamard stores the elementwise product a .* b into m. m may alias a
// or b exactly, never partially.
func (m *Dense) Hadamard(a, b *Dense) {
	a.mustSameShape(b, "Hadamard")
	m.mustSameShape(a, "Hadamard")
	mustElementwiseAlias("Hadamard", m, a)
	mustElementwiseAlias("Hadamard", m, b)
	for i := range m.Data {
		m.Data[i] = a.Data[i] * b.Data[i]
	}
}

// HadamardAll returns the elementwise product of all ms. It panics on an
// empty input. The result is freshly allocated.
func HadamardAll(ms ...*Dense) *Dense {
	if len(ms) == 0 {
		panic("mat: HadamardAll of nothing")
	}
	out := New(ms[0].Rows, ms[0].Cols)
	HadamardAllInto(out, ms...)
	return out
}

// HadamardAllInto stores the elementwise product of all ms into dst.
// dst may alias ms[0] exactly; it must not partially overlap any input.
// It panics on an empty input.
func HadamardAllInto(dst *Dense, ms ...*Dense) {
	if len(ms) == 0 {
		panic("mat: HadamardAll of nothing")
	}
	dst.CopyFrom(ms[0])
	for _, m := range ms[1:] {
		dst.Hadamard(dst, m)
	}
}

// TransposeInto stores Aᵀ into dst, which must be a.Cols x a.Rows and
// must not alias a.
func TransposeInto(dst, a *Dense) {
	if dst.Rows != a.Cols || dst.Cols != a.Rows {
		panic(fmt.Sprintf("mat: TransposeInto destination %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Cols, a.Rows))
	}
	mustDisjoint("TransposeInto", dst, a)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for j, v := range row {
			dst.Data[j*a.Rows+i] = v
		}
	}
}

// SumAll returns the sum of every element of A. Applied to a Hadamard
// product of Gram matrices it yields the Kruskal inner product
// <[[A_1..A_N]], [[B_1..B_N]]> = SumAll(∗_k A_kᵀB_k).
func SumAll(a *Dense) float64 {
	sum := 0.0
	for _, v := range a.Data {
		sum += v
	}
	return sum
}

// MaxAbsDiff returns max_ij |a_ij - b_ij|, used by equivalence tests.
func MaxAbsDiff(a, b *Dense) float64 {
	a.mustSameShape(b, "MaxAbsDiff")
	max := 0.0
	for i, v := range a.Data {
		d := math.Abs(v - b.Data[i])
		if d > max {
			max = d
		}
	}
	return max
}

// RandomGaussian fills a fresh r x c matrix with N(0,1) variates drawn
// from src.
func RandomGaussian(r, c int, src *xrand.Source) *Dense {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = src.NormFloat64()
	}
	return m
}

// RandomUniform fills a fresh r x c matrix with U[0,1) variates drawn
// from src.
func RandomUniform(r, c int, src *xrand.Source) *Dense {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = src.Float64()
	}
	return m
}

// StackRows returns the (a.Rows+b.Rows) x Cols matrix [A; B] in fresh
// storage, which may have spare capacity past its last row. The paper
// stacks the old-region block A^(0) on top of the growth block A^(1) to
// form the full factor.
func StackRows(a, b *Dense) *Dense {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: StackRows column mismatch %d vs %d", a.Cols, b.Cols))
	}
	// Appending to a capacity-capped view of a's data allocates the
	// result and writes each element once; New would zero it all first.
	// With b empty that append would return a's own storage.
	if len(b.Data) == 0 {
		return &Dense{Rows: a.Rows, Cols: a.Cols, Data: append([]float64{}, a.Data...)}
	}
	return &Dense{Rows: a.Rows + b.Rows, Cols: a.Cols, Data: append(a.Data[:len(a.Data):len(a.Data)], b.Data...)}
}

// SliceRows returns rows [from, to) of m as a view sharing storage.
func (m *Dense) SliceRows(from, to int) *Dense {
	if from < 0 || to < from || to > m.Rows {
		panic(fmt.Sprintf("mat: SliceRows[%d:%d] of %d rows", from, to, m.Rows))
	}
	return &Dense{Rows: to - from, Cols: m.Cols, Data: m.Data[from*m.Cols : to*m.Cols]}
}
