package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotSPD reports that a Cholesky factorisation failed because the
// matrix is not (numerically) symmetric positive definite.
var ErrNotSPD = errors.New("mat: matrix is not positive definite")

// CholeskyInto computes the lower-triangular L with A = LLᵀ for a
// symmetric positive definite A into l, which must be a.Rows x a.Rows
// and must not alias a (later pivots re-read earlier columns of a).
// Only the lower triangle of A is read; l is fully overwritten, upper
// triangle zeroed. It returns ErrNotSPD when a pivot is not strictly
// positive.
func CholeskyInto(l, a *Dense) error {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("mat: Cholesky of non-square %dx%d", a.Rows, a.Cols))
	}
	if l.Rows != a.Rows || l.Cols != a.Cols {
		panic(fmt.Sprintf("mat: CholeskyInto destination %dx%d, want %dx%d", l.Rows, l.Cols, a.Rows, a.Cols))
	}
	mustDisjoint("CholeskyInto", l, a)
	n := a.Rows
	l.Zero()
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			v := l.At(j, k)
			d -= v * v
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrNotSPD
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/ljj)
		}
	}
	return nil
}

// CholeskySolveColumns solves LLᵀ x = y in place for right-hand sides
// [lo, hi) of a column-major block: unknown i of every system lies in
// blk[i*stride+lo : i*stride+hi] — a row-major n×stride matrix of
// right-hand-side columns, or Xᵀ for X·D = M, in which case no transpose
// stands between the caller's layout and the substitutions.
// Each right-hand side is solved independently of its neighbours, so
// disjoint ranges may run concurrently and the bits do not depend on the
// split.
func CholeskySolveColumns(l *Dense, blk []float64, stride, lo, hi int) {
	n := l.Rows
	row := func(i int) []float64 { return blk[i*stride+lo : i*stride+hi] }
	// Forward substitution L y = b.
	for i := 0; i < n; i++ {
		brow := row(i)
		for k := 0; k < i; k++ {
			lik := l.At(i, k)
			if lik == 0 {
				continue
			}
			krow := row(k)[:len(brow)]
			for c := range brow {
				brow[c] -= lik * krow[c]
			}
		}
		inv := 1 / l.At(i, i)
		for c := range brow {
			brow[c] *= inv
		}
	}
	// Backward substitution Lᵀ x = y.
	for i := n - 1; i >= 0; i-- {
		brow := row(i)
		for k := i + 1; k < n; k++ {
			lki := l.At(k, i)
			if lki == 0 {
				continue
			}
			krow := row(k)[:len(brow)]
			for c := range brow {
				brow[c] -= lki * krow[c]
			}
		}
		inv := 1 / l.At(i, i)
		for c := range brow {
			brow[c] *= inv
		}
	}
}

// SolveSPDInto solves A X = B for symmetric positive definite A into
// dst, taking the Cholesky factor from ws. B is not modified. dst must be b.Rows x b.Cols; it may alias b exactly (B is copied
// into dst before the factor is applied) but must not alias a. ws is
// released to its entry mark before returning.
func SolveSPDInto(dst, a, b *Dense, ws *Workspace) error {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: SolveSPD dimension mismatch %dx%d \\ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustDisjoint("SolveSPDInto", dst, a)
	mark := ws.Mark()
	defer ws.Release(mark)
	l := ws.Take(a.Rows, a.Cols)
	if err := CholeskyInto(l, a); err != nil {
		return err
	}
	dst.CopyFrom(b)
	CholeskySolveColumns(l, dst.Data, dst.Cols, 0, dst.Cols)
	return nil
}

// SolveRightRidgeInto computes M · D⁻¹ into dst, the ALS "numerator
// times inverse denominator" step the paper applies row-wise. D must be
// symmetric (the Hadamard product of Gram matrices is). When D is not
// positive definite — a rank-deficient factor during early iterations —
// a small ridge eps·trace(D)/R·I is added until the Cholesky succeeds,
// the standard regularised-ALS fallback. All scratch (the regularised
// copy of D, the Cholesky factor, and the transposed solve buffer)
// comes from ws. dst must be m.Rows x m.Cols; it may alias m exactly (M is
// transposed into scratch before dst is written) but must not alias d.
// ws is released to its entry mark before returning.
func SolveRightRidgeInto(dst, m, d *Dense, ws *Workspace) {
	if d.Rows != d.Cols || m.Cols != d.Rows {
		panic(fmt.Sprintf("mat: SolveRightRidge dimension mismatch %dx%d · inv(%dx%d)", m.Rows, m.Cols, d.Rows, d.Cols))
	}
	if dst.Rows != m.Rows || dst.Cols != m.Cols {
		panic(fmt.Sprintf("mat: SolveRightRidgeInto destination %dx%d, want %dx%d", dst.Rows, dst.Cols, m.Rows, m.Cols))
	}
	mustDisjoint("SolveRightRidgeInto", dst, d)
	mustElementwiseAlias("SolveRightRidgeInto", dst, m)
	mark := ws.Mark()
	defer ws.Release(mark)
	l := ws.Take(d.Rows, d.Rows)
	RidgeCholeskyInto(l, d, ws)
	SolveRightFactoredRange(dst, m, l, 0, m.Rows, ws)
}

// RidgeCholeskyInto factorises D (with the ridge fallback described on
// SolveRightRidgeInto) into the lower-triangular l, taking the regularised
// copy of D from ws. l must be d.Rows x d.Rows and must not alias d.
// The factor is the shared input of SolveRightFactoredRange, letting
// one factorisation serve many (possibly concurrent) row-range solves.
// ws is released to its entry mark before returning.
func RidgeCholeskyInto(l, d *Dense, ws *Workspace) {
	if d.Rows != d.Cols {
		panic(fmt.Sprintf("mat: RidgeCholesky of non-square %dx%d", d.Rows, d.Cols))
	}
	mustDisjoint("RidgeCholeskyInto", l, d)
	n := d.Rows
	tr := 0.0
	for i := 0; i < n; i++ {
		tr += math.Abs(d.At(i, i))
	}
	if tr == 0 {
		tr = 1
	}
	mark := ws.Mark()
	defer ws.Release(mark)
	work := ws.Take(n, n)
	work.CopyFrom(d)
	ridge := 0.0
	for attempt := 0; ; attempt++ {
		if err := CholeskyInto(l, work); err == nil {
			return
		}
		if attempt > 60 {
			panic("mat: SolveRightRidge could not regularise matrix")
		}
		if ridge == 0 {
			ridge = 1e-12 * tr / float64(n)
		} else {
			ridge *= 10
		}
		work.CopyFrom(d)
		for i := 0; i < n; i++ {
			work.Set(i, i, work.At(i, i)+ridge)
		}
	}
}

// SolveRightFactoredRange computes rows [lo, hi) of M · D⁻¹ into the
// same rows of dst, given D's (ridge-)Cholesky factor l. It solves
// D Xᵀ = Mᵀ column-by-column using D's symmetry, so each row of the
// result depends only on the matching row of M and on l — disjoint row
// ranges solved with separate workspaces are independent, and because
// the triangular substitutions touch each column separately the bits
// produced for a row do not depend on which range it belongs to. dst
// may alias m exactly (the rows are staged through ws scratch) but
// must not alias l. ws is released to its entry mark before returning.
func SolveRightFactoredRange(dst, m, l *Dense, lo, hi int, ws *Workspace) {
	if l.Rows != l.Cols || m.Cols != l.Rows {
		panic(fmt.Sprintf("mat: SolveRightFactoredRange dimension mismatch %dx%d · inv(%dx%d)", m.Rows, m.Cols, l.Rows, l.Cols))
	}
	if dst.Rows != m.Rows || dst.Cols != m.Cols {
		panic(fmt.Sprintf("mat: SolveRightFactoredRange destination %dx%d, want %dx%d", dst.Rows, dst.Cols, m.Rows, m.Cols))
	}
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("mat: SolveRightFactoredRange range [%d, %d) of %d rows", lo, hi, m.Rows))
	}
	mustDisjoint("SolveRightFactoredRange", dst, l)
	mustElementwiseAlias("SolveRightFactoredRange", dst, m)
	if lo == hi {
		return
	}
	w := hi - lo
	mark := ws.Mark()
	defer ws.Release(mark)
	xt := ws.Take(m.Cols, w)
	for i := lo; i < hi; i++ {
		row := m.Row(i)
		for j, v := range row {
			xt.Data[j*w+(i-lo)] = v
		}
	}
	CholeskySolveColumns(l, xt.Data, w, 0, w)
	for i := lo; i < hi; i++ {
		drow := dst.Row(i)
		for j := range drow {
			drow[j] = xt.Data[j*w+(i-lo)]
		}
	}
}
