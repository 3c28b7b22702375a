package mat

import "fmt"

// Workspace is a sized scratch-buffer arena with checkout/reset
// semantics, built so steady-state hot loops perform zero heap
// allocations: ALS sweeps, streaming steps and distributed iterations
// execute the same sequence of scratch checkouts every pass, so after a
// warm-up pass every Take is served from a cached slab.
//
// Checkout is positional: the i-th Take since the last Reset reuses the
// i-th slab, growing it (one allocation) only when the requested size
// exceeds the slab's running-maximum capacity. Mark/Release give nested
// scopes — a kernel may Mark, take its temporaries, and Release them
// without disturbing the caller's earlier checkouts.
//
// Rules:
//
//   - A matrix or vector returned by Take/TakeVec is valid until the
//     position is released (Release below its mark, or Reset). Using it
//     after that reads memory re-checked-out by someone else.
//   - Take zeroes the returned buffer, so a workspace matrix behaves
//     exactly like a fresh New(r, c).
//   - A Workspace is not safe for concurrent use; the intended pattern
//     is one workspace per goroutine (per worker, per iteration state).
type Workspace struct {
	slabs [][]float64
	hdrs  []*Dense
	n     int // checked-out positions
}

// NewWorkspace returns an empty workspace. Slabs are grown on demand by
// Take, so no sizing is needed up front.
func NewWorkspace() *Workspace { return &Workspace{} }

// Take checks out a zeroed r x c matrix backed by workspace memory.
// The returned header is owned by the workspace and reused across
// Reset cycles; do not retain it past Release/Reset.
func (w *Workspace) Take(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: Workspace.Take(%d, %d) with negative dimension", r, c))
	}
	need := r * c
	if w.n == len(w.slabs) {
		w.slabs = append(w.slabs, make([]float64, need))
		w.hdrs = append(w.hdrs, &Dense{})
	} else if cap(w.slabs[w.n]) < need {
		w.slabs[w.n] = make([]float64, need)
	}
	buf := w.slabs[w.n][:need]
	for i := range buf {
		buf[i] = 0
	}
	h := w.hdrs[w.n]
	h.Rows, h.Cols, h.Data = r, c, buf
	w.n++
	return h
}

// TakeVec checks out a zeroed length-n scratch vector.
func (w *Workspace) TakeVec(n int) []float64 { return w.Take(1, n).Data }

// Mark returns the current checkout position, to be passed to Release.
func (w *Workspace) Mark() int { return w.n }

// Release returns every checkout made since the matching Mark to the
// arena. It panics on a mark that is out of range (double release, or a
// mark from a different reset cycle).
func (w *Workspace) Release(mark int) {
	if mark < 0 || mark > w.n {
		panic(fmt.Sprintf("mat: Workspace.Release(%d) with %d positions checked out", mark, w.n))
	}
	w.n = mark
}

// Reset returns every checkout to the arena, keeping the slabs cached.
func (w *Workspace) Reset() { w.n = 0 }
