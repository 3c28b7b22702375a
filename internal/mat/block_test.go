package mat

import (
	"fmt"
	"math"
	"testing"
)

// columnMajor returns aᵀ as a block: column c of a at blk[c*a.Rows:].
func columnMajor(a *Dense) []float64 {
	t := New(a.Cols, a.Rows)
	TransposeInto(t, a)
	return t.Data
}

// TestBlockKernelsMatchRowMajor holds each column-major kernel to the
// row-major kernel it stands in for, bit for bit, on inputs with exact
// zeros and negative zeros (where the two differ in which ±0 terms they
// add), at widths on both sides of the four-column pass and on split
// ranges.
func TestBlockKernelsMatchRowMajor(t *testing.T) {
	for _, r := range []int{1, 2, 3, 4, 5, 7, 10, 16} {
		for _, n := range []int{0, 1, 5, 33} {
			name := fmt.Sprintf("R=%d/n=%d", r, n)
			a, b := randomDense(n, r, uint64(10*r+n)), randomDense(n, r, uint64(10*r+n+1))
			for i := 3; i < len(a.Data); i += 11 {
				a.Data[i] = math.Copysign(0, -1)
			}
			s := randomDense(r, r, uint64(r))
			at, bt := columnMajor(a), columnMajor(b)

			// AᵀB, row i from column i of A: every suffix a Gram row asks for.
			want := CrossGram(a, b)
			got := New(r, r)
			for i := 0; i < r; i++ {
				for c0 := 0; c0 <= i; c0++ {
					row := got.Row(i)
					for c := range row {
						row[c] = math.NaN()
					}
					DotColumnsInto(row[c0:], at[i*n:][:n], bt[c0*n:], n)
					sameBits(t, fmt.Sprintf("%s: DotColumnsInto row %d from column %d", name, i, c0),
						NewFrom(1, r-c0, row[c0:]), NewFrom(1, r-c0, want.Row(i)[c0:]))
				}
			}

			// A·S, one column at a time, over two ranges of rows.
			wantMul := New(n, r)
			MulInto(wantMul, a, s)
			st := columnMajor(s) // row c of sᵀ is column c of s
			gotT := make([]float64, r*n)
			for _, cut := range [][2]int{{0, n / 3}, {n / 3, n}} {
				for c := 0; c < r; c++ {
					MulColumnsInto(gotT[c*n+cut[0]:c*n+cut[1]], at[cut[0]:], n, st[c*r:][:r])
				}
			}
			sameBits(t, name+": MulColumnsInto vs MulInto", NewFrom(r, n, gotT), NewFrom(r, n, columnMajor(wantMul)))

			// M·D⁻¹ against one factor, over two ranges.
			d := Gram(randomDense(r+3, r, uint64(r+40)))
			l := New(r, r)
			ws := NewWorkspace()
			RidgeCholeskyInto(l, d, ws)
			wantSolve := New(n, r)
			SolveRightFactoredRange(wantSolve, a, l, 0, n, ws)
			blk := columnMajor(a)
			for _, cut := range [][2]int{{n / 2, n}, {0, n / 2}} {
				CholeskySolveColumns(l, blk, n, cut[0], cut[1])
			}
			sameBits(t, name+": CholeskySolveColumns vs SolveRightFactoredRange", NewFrom(r, n, blk), NewFrom(r, n, columnMajor(wantSolve)))
		}
	}
}
