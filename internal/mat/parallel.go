package mat

// Parallel execution support for the dense kernels. Everything here
// follows the deterministic-reduction rule of the par runtime: a
// parallel kernel partitions the OUTPUT elements (rows of the result)
// across chunks and keeps the per-element accumulation order of the
// sequential kernel, so the bits produced are identical for every
// thread count — including the sequential nil-pool path, which runs
// the exact pre-refactor loop.

import (
	"fmt"

	"dismastd/internal/par"
)

// WorkspaceSet is the per-thread arena facility: one Workspace per
// pool thread, indexed by the tid a par.Body chunk runs as. The set
// preserves the zero-alloc steady state — each thread's scratch
// checkouts are positional within its own arena, so after warm-up no
// chunk allocates regardless of which pool worker executes it (tid,
// not goroutine identity, selects the arena, and chunk→tid assignment
// is static).
type WorkspaceSet struct {
	ws []*Workspace
}

// NewWorkspaceSet returns n fresh workspaces, one per pool thread
// (pool.Threads() of them).
func NewWorkspaceSet(n int) *WorkspaceSet {
	if n < 1 {
		panic(fmt.Sprintf("mat: NewWorkspaceSet(%d)", n))
	}
	s := &WorkspaceSet{ws: make([]*Workspace, n)}
	for i := range s.ws {
		s.ws[i] = NewWorkspace()
	}
	return s
}

// At returns thread tid's workspace.
func (s *WorkspaceSet) At(tid int) *Workspace { return s.ws[tid] }

// Len reports the number of per-thread workspaces.
func (s *WorkspaceSet) Len() int { return len(s.ws) }

// AccumulateCrossGramRows adds rows [lo, hi) of AᵀB into the same rows
// of dst: dst[r][c] += Σ_i a[i][r]·b[i][c] for r in the range, scanning
// input rows in ascending order exactly like AccumulateCrossGram — the
// accumulation order per output entry is independent of the range
// split, so chunked evaluation reproduces the sequential bits.
func AccumulateCrossGramRows(dst, a, b *Dense, lo, hi int) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: AccumulateCrossGramRows row mismatch %d vs %d", a.Rows, b.Rows))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic("mat: AccumulateCrossGramRows destination shape mismatch")
	}
	if lo < 0 || hi > dst.Rows || lo > hi {
		panic(fmt.Sprintf("mat: AccumulateCrossGramRows range [%d, %d) of %d rows", lo, hi, dst.Rows))
	}
	mustDisjoint("AccumulateCrossGramRows", dst, a)
	mustDisjoint("AccumulateCrossGramRows", dst, b)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		brow := b.Row(i)
		for r := lo; r < hi; r++ {
			av := arow[r]
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

// MulRowsInto computes rows [lo, hi) of A·B into the same rows of dst,
// zeroing them first. Each output row depends only on the matching row
// of A, so disjoint ranges are independent and bitwise identical to
// MulInto's sequential loop.
func MulRowsInto(dst, a, b *Dense, lo, hi int) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul inner dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulRowsInto destination %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	if lo < 0 || hi > dst.Rows || lo > hi {
		panic(fmt.Sprintf("mat: MulRowsInto range [%d, %d) of %d rows", lo, hi, dst.Rows))
	}
	mustDisjoint("MulRowsInto", dst, a)
	mustDisjoint("MulRowsInto", dst, b)
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		orow := dst.Row(i)
		for j := range orow {
			orow[j] = 0
		}
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

// ParKernels bundles the pooled variants of the dense kernels a driver
// runs per sweep over row-major matrices: the Gram/CrossGram refreshes.
// (The Eq. (5) numerator and right-solve run on the sweep's column-major
// live block — see block.go.) One ParKernels is owned by one driver (one
// goroutine); the task struct lives on it so steady-state dispatch
// allocates nothing. With a nil pool every method degrades to the
// sequential kernel, bit-for-bit.
type ParKernels struct {
	pool *par.Pool
	gram crossGramRowsTask
}

// NewParKernels binds the kernels to a pool.
func NewParKernels(pool *par.Pool) *ParKernels { return &ParKernels{pool: pool} }

// crossGramRowsTask evaluates a row range of AᵀB (zero + accumulate).
type crossGramRowsTask struct {
	dst, a, b *Dense
}

func (t *crossGramRowsTask) RunChunk(lo, hi, tid int) {
	for r := lo; r < hi; r++ {
		row := t.dst.Row(r)
		for c := range row {
			row[c] = 0
		}
	}
	AccumulateCrossGramRows(t.dst, t.a, t.b, lo, hi)
}

// CrossGramInto computes AᵀB into dst with output rows chunked across
// the pool.
func (k *ParKernels) CrossGramInto(dst, a, b *Dense) {
	k.gram = crossGramRowsTask{dst: dst, a: a, b: b}
	k.pool.For(dst.Rows, &k.gram)
}

// GramInto computes AᵀA into dst with output rows chunked across the
// pool.
func (k *ParKernels) GramInto(dst, a *Dense) { k.CrossGramInto(dst, a, a) }
