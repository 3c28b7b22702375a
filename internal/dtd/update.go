package dtd

import (
	"fmt"
	"slices"

	"dismastd/internal/layout"
	"dismastd/internal/mat"
	"dismastd/internal/xrand"
)

// Updater maintains the decomposition between full sweeps with bounded
// work per event, SliceNStitch-style: incoming entries accumulate into
// an append-only pending region (layout.Delta) and each micro-batch
// re-solves only the factor rows the batch touched, using the same
// Eq. (5) row update the whole-sweep driver applies — numerator from an
// exact per-row MTTKRP over the pending region (on an order-3 region,
// the compiled layout's row kernel), denominators from incrementally
// maintained Gram blocks, each row solved in place. Everything else is
// left alone, so a batch costs, per mode, two R×R Cholesky
// factorisations and, per touched row, O(pending-row-nnz · R) for the
// numerator plus O(R²) for the solve and the Gram folds — independent
// of the tensor size.
//
// The updater is anchored at the state of the last full sweep: tilde
// holds the anchor factors, anchorDims the anchor region, and the
// update rules treat rows inside the anchor as the old block A^(0)
// (solved against D_0 with the μ-weighted history numerator) and rows
// gained since as the growth block A^(1) (solved against D_1). The
// periodic full sweep is the drift backstop: it re-runs Step from the
// anchor over the accumulated pending entries, which both restores the
// bulk path's bitwise-exact result and re-anchors the updater (Reset).
//
// All scratch is allocated in NewUpdater and retained across calls, so
// a warmed Apply performs zero heap allocations (Grow allocates, but
// appends into spare row capacity so its cost is amortised O(new rows),
// not O(factor)). The row loop is deliberately sequential:
// rows are solved in ascending order and Gram maintenance folds each
// row in as it lands, which keeps the result bitwise deterministic for
// a given event sequence at any thread count upstream.
type Updater struct {
	opts       Options
	live       *State
	anchorDims []int
	tilde      []*mat.Dense // anchor factors Ã_n (cloned at Reset)
	gram0      []*mat.Dense // A_n^(0)ᵀ A_n^(0), maintained per row
	gram1      []*mat.Dense // A_n^(1)ᵀ A_n^(1), maintained per row
	cross      []*mat.Dense // Ã_nᵀ A_n^(0), maintained per row
	delta      *layout.Delta
	src        *xrand.Source
	// grown[m] is the live factor of mode m if Grow allocated it, with
	// spare row capacity behind it, and it is still in place. Grow
	// appends in place only into storage it allocated itself: a factor
	// handed in by Reset may be a view whose capacity belongs to someone
	// else.
	grown []*mat.Dense

	ws *mat.Workspace
	denoms
	l0, l1  *mat.Dense // Cholesky factors of d0, d1
	oldRow  []float64
	touched []int32

	rowsTouched int64
}

// NewUpdater returns an updater anchored at st. st's factors are
// updated in place by Apply; the caller keeps ownership and must
// re-anchor with Reset after replacing them (e.g. after a full sweep).
func NewUpdater(st *State, o Options) (*Updater, error) {
	opts, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	r := opts.Rank
	n := len(st.Dims)
	u := &Updater{
		opts:   opts,
		tilde:  make([]*mat.Dense, n),
		gram0:  make([]*mat.Dense, n),
		gram1:  make([]*mat.Dense, n),
		cross:  make([]*mat.Dense, n),
		grown:  make([]*mat.Dense, n),
		src:    xrand.New(opts.Seed),
		ws:     mat.NewWorkspace(),
		denoms: newDenoms(r),
		l0:     mat.New(r, r),
		l1:     mat.New(r, r),
		oldRow: make([]float64, r),
		delta:  layout.NewDelta(st.Dims),
	}
	for m := 0; m < n; m++ {
		u.gram0[m] = mat.New(r, r)
		u.gram1[m] = mat.New(r, r)
		u.cross[m] = mat.New(r, r)
	}
	u.Reset(st)
	return u, nil
}

// Reset re-anchors the updater at st — the state a full sweep just
// produced — and drops the pending region. At the anchor the growth
// block is empty: gram1 is zero, and cross equals gram0 because the
// old block coincides with the anchor factors.
func (u *Updater) Reset(st *State) {
	if len(st.Dims) != len(u.tilde) {
		panic(fmt.Sprintf("dtd: Reset with order-%d state on order-%d updater", len(st.Dims), len(u.tilde)))
	}
	u.live = st
	u.anchorDims = append(u.anchorDims[:0], st.Dims...)
	for m, f := range st.Factors {
		if u.tilde[m] != nil && u.tilde[m].Rows == f.Rows {
			u.tilde[m].CopyFrom(f)
		} else {
			u.tilde[m] = f.Clone()
		}
		if f != u.grown[m] {
			u.grown[m] = nil // replaced by the sweep: let the old storage go
		}
		mat.GramInto(u.gram0[m], f)
		u.gram1[m].Zero()
		u.cross[m].CopyFrom(u.gram0[m])
	}
	u.delta.Reset()
	grown := false
	for m, d := range st.Dims {
		if u.delta.Dims()[m] != d {
			grown = true
		}
	}
	if grown {
		u.delta.Grow(st.Dims)
	}
	u.rowsTouched = 0
}

// Grow extends the live mode sizes for out-of-range events — the
// multi-aspect case. New rows join the growth block: they are
// initialised like a sweep's growth rows (uniform random) and folded
// into gram1 so the next Apply's denominators see them. The first
// growth of a factor reallocates it with room for an eighth more rows;
// later ones append into that room, so a stream that grows a row at a
// time does not copy the factor per event.
func (u *Updater) Grow(dims []int) error {
	if len(dims) != len(u.live.Dims) {
		return fmt.Errorf("%w: order %d vs %d", ErrDimsMismatch, len(dims), len(u.live.Dims))
	}
	for m, d := range dims {
		if d < u.live.Dims[m] {
			return fmt.Errorf("%w: mode %d shrank %d -> %d", ErrDimsMismatch, m, u.live.Dims[m], d)
		}
	}
	for m, d := range dims {
		old := u.live.Dims[m]
		if d == old {
			continue
		}
		growth := mat.RandomUniform(d-old, u.opts.Rank, u.src)
		u.grown[m] = appendRows(u.live.Factors[m], growth, u.live.Factors[m] == u.grown[m])
		u.live.Factors[m] = u.grown[m]
		for i := 0; i < growth.Rows; i++ {
			row := growth.Row(i)
			addOuter(u.gram1[m], row, row, 1)
		}
		u.live.Dims[m] = d
	}
	u.delta.Grow(dims)
	return nil
}

// appendRows returns [A; B] like mat.StackRows. With inPlace set — the
// caller allocated a's storage here — rows that fit a's spare capacity
// are appended without copying a; otherwise the result is a fresh
// allocation with spare capacity for an eighth more rows, which bounds
// the slack a growing factor can hold.
func appendRows(a, b *mat.Dense, inPlace bool) *mat.Dense {
	rows := a.Rows + b.Rows
	data := a.Data
	if !inPlace || cap(data) < rows*a.Cols {
		data = make([]float64, len(a.Data), (rows+rows/8)*a.Cols)
		copy(data, a.Data)
	}
	return mat.NewFrom(rows, a.Cols, append(data, b.Data...))
}

// Pending returns the number of entries accumulated since the last
// Reset — the region the next full sweep will consume.
func (u *Updater) Pending() int { return u.delta.NNZ() }

// Anchor returns the state of the last full sweep — the prev argument
// the drift-backstop sweep steps from. The factors are the updater's
// own anchor copies; treat the result as read-only.
func (u *Updater) Anchor() *State {
	return &State{Dims: append([]int(nil), u.anchorDims...), Factors: u.tilde}
}

// RowsTouched returns the number of row solves performed since the
// last Reset — the bounded work the event path actually did.
func (u *Updater) RowsTouched() int64 { return u.rowsTouched }

// Delta exposes the pending region, so the flush path can rebuild the
// sweep snapshot without a second copy of the entries, and a caller
// about to sweep can queue a batch with Append — Apply without the row
// solves, which that sweep would discard.
func (u *Updater) Delta() *layout.Delta { return u.delta }

// Apply admits one micro-batch — coords flat entry-major, vals the
// matching values, all coordinates inside the live dims (Grow first) —
// and refreshes every factor row the batch touched. Modes are visited
// in ascending order and each mode's Gram blocks are folded forward
// before the next mode solves, mirroring the sweep's Gauss–Seidel
// structure.
func (u *Updater) Apply(coords []int32, vals []float64) {
	n := len(u.live.Dims)
	if len(coords) != n*len(vals) {
		panic(fmt.Sprintf("dtd: Apply with %d coords for %d values of order %d", len(coords), len(vals), n))
	}
	u.delta.Append(coords, vals)
	for m := 0; m < n; m++ {
		u.touched = u.touched[:0]
		for e := range vals {
			u.touched = append(u.touched, coords[e*n+m])
		}
		slices.Sort(u.touched)
		u.touched = slices.Compact(u.touched)
		u.updateMode(m)
	}
}

// updateMode re-solves the touched rows of one mode with the Eq. (5)
// row update, then folds each new row into the mode's Gram blocks. A
// row's numerator is built in the factor row itself (AccumulateRow
// reads only the other modes' factors) and solved there, once the old
// row is saved for the Gram downdate.
func (u *Updater) updateMode(m int) {
	u.fill(u.gram0, u.gram1, u.cross, m, u.opts.Mu, nil)
	mat.RidgeCholeskyInto(u.l0, u.d0, u.ws)
	mat.RidgeCholeskyInto(u.l1, u.d1, u.ws)

	for _, i := range u.touched {
		u.rowsTouched++
		live := u.live.Factors[m].Row(int(i))
		copy(u.oldRow, live)
		u.delta.AccumulateRow(live, u.live.Factors, m, i)
		l := u.l1
		inAnchor := int(i) < u.anchorDims[m]
		if inAnchor {
			// live += μ · ã_i · hprod (the history term of A^(0)'s rule).
			trow := u.tilde[m].Row(int(i))
			for s, ts := range trow {
				hrow := u.hprod.Row(s)
				w := u.opts.Mu * ts
				for c := range live {
					live[c] += w * hrow[c]
				}
			}
			l = u.l0
		}
		solveRow(l, live)
		if inAnchor {
			addOuter(u.gram0[m], live, live, 1)
			addOuter(u.gram0[m], u.oldRow, u.oldRow, -1)
			// cross += ã_iᵀ (new − old).
			trow := u.tilde[m].Row(int(i))
			for s, ts := range trow {
				crow := u.cross[m].Row(s)
				for c := range live {
					crow[c] += ts * (live[c] - u.oldRow[c])
				}
			}
		} else {
			addOuter(u.gram1[m], live, live, 1)
			addOuter(u.gram1[m], u.oldRow, u.oldRow, -1)
		}
	}
}

// solveRow solves x·LLᵀ = b in place for one row b = x of length R,
// given the lower-triangular L: the row as one right-hand-side column,
// with mat.CholeskySolveColumns' exact operation order — forward then
// backward substitution, zero entries of L skipped, each unknown
// multiplied by 1/lᵢᵢ — so the bits equal mat.SolveRightFactoredRange's
// without its workspace transpose.
func solveRow(l *mat.Dense, x []float64) {
	n := len(x)
	ld := l.Data[:n*n]
	for i := 0; i < n; i++ {
		s := x[i]
		for k, lik := range ld[i*n : i*n+i] {
			if lik == 0 {
				continue
			}
			s -= lik * x[k]
		}
		inv := 1 / ld[i*n+i]
		x[i] = s * inv
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			lki := ld[k*n+i]
			if lki == 0 {
				continue
			}
			s -= lki * x[k]
		}
		inv := 1 / ld[i*n+i]
		x[i] = s * inv
	}
}

// addOuter adds w·(aᵀb) into g for row vectors a, b.
func addOuter(g *mat.Dense, a, b []float64, w float64) {
	for i, ai := range a {
		gi := g.Row(i)
		wa := w * ai
		for j, bj := range b {
			gi[j] += wa * bj
		}
	}
}
