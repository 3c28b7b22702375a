// Package onlinecp implements OnlineCP (Zhou et al., SIGKDD 2016), the
// traditional *one-mode* streaming CP baseline of the paper's Table I.
// It exists to make the paper's motivating contrast executable: OnlineCP
// incrementally absorbs new slices of a single growing mode (time) in
// O(nnz(ΔX)·R) per batch, but structurally cannot handle multi-aspect
// growth — when any non-time mode grows it must fall back to a full
// recomputation, which is exactly the gap DTD/DisMASTD close.
//
// For each non-streaming mode n the tracker maintains the *paired*
// accumulators of the normal equations,
//
//	P_n = Σ_batches ΔX_(n) · KR(factors at absorb time, k≠n)
//	Q_n = Σ_batches (c_newᵀc_new) ∗ ∗_{k≠n,s}(A_kᵀA_k at absorb time)
//
// and refreshes A_n = P_n · Q_n⁻¹. P and Q must age together — pairing
// a stale P with fresh Grams destroys the normal equations — which is
// the heart of the OnlineCP trick. A new batch costs O(nnz(ΔX)·R) for
// the fold-in plus O(ΣI_n·R²) for the refreshes.
package onlinecp

import (
	"errors"
	"fmt"

	"dismastd/internal/layout"
	"dismastd/internal/mat"
	"dismastd/internal/mttkrp"
	"dismastd/internal/par"
	"dismastd/internal/tensor"
	"dismastd/internal/xrand"
)

// Options configures an OnlineCP tracker.
type Options struct {
	Rank       int    // R (required, > 0)
	StreamMode int    // index of the growing mode (usually the last)
	InitIters  int    // ALS sweeps on the initial batch; default 30
	Seed       uint64 // initialisation seed; default 1

	// Threads sizes the tracker's shared-memory pool (see internal/par).
	// 0 or 1 means sequential; results are bitwise identical at every
	// value. Call Close when done with a tracker to stop the pool.
	Threads int

	// Layout selects the kernel representation of the initial ALS (see
	// internal/layout): Compiled (the zero value) or COO. Absorb's P
	// fold-in always stays on the flat kernel — it accumulates onto
	// live non-zero state, where regrouping would change rounding — so
	// results are bitwise identical under either.
	Layout layout.Kind
}

func (o *Options) withDefaults(order int) (Options, error) {
	opts := *o
	if opts.Rank <= 0 {
		return opts, fmt.Errorf("onlinecp: rank must be positive, got %d", opts.Rank)
	}
	if opts.StreamMode < 0 || opts.StreamMode >= order {
		return opts, fmt.Errorf("onlinecp: stream mode %d out of range for order %d", opts.StreamMode, order)
	}
	if opts.InitIters <= 0 {
		opts.InitIters = 30
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Threads < 0 {
		return opts, fmt.Errorf("onlinecp: negative thread count %d", opts.Threads)
	}
	if opts.Threads == 0 {
		opts.Threads = 1
	}
	return opts, nil
}

// Tracker carries the OnlineCP state between batches, plus the
// persistent scratch every Absorb reuses (the workspace, the current
// Gram set, and the R×R fold-in buffers), so absorbing a batch
// allocates only for the genuinely growing state.
type Tracker struct {
	opts    Options
	dims    []int        // current mode sizes
	factors []*mat.Dense // current factors; factors[StreamMode] grows
	p       []*mat.Dense // accumulated P_n, n ≠ StreamMode
	q       []*mat.Dense // accumulated Q_n, n ≠ StreamMode

	ws   *mat.Workspace
	pool *par.Pool
	wss  *mat.WorkspaceSet
	pk   *mat.ParKernels

	factorsG []*mat.Dense // per-batch factor view with the grown mode
	curGrams []*mat.Dense // A_nᵀA_n at batch-absorb time
	gramNew  *mat.Dense   // c_newᵀ c_new
	dq       *mat.Dense   // per-mode Q_n increment
	gk       *mat.Dense   // Gram scratch for the dq Hadamard chain
	denom    *mat.Dense   // Hadamard-chain denominator scratch
}

// ErrMultiAspect reports a batch that grows a non-streaming mode — the
// case OnlineCP cannot absorb incrementally (use DTD/DisMASTD).
var ErrMultiAspect = errors.New("onlinecp: batch grows a non-streaming mode")

// Init decomposes the initial tensor with plain ALS and prepares the
// running accumulators.
func Init(x *tensor.Tensor, o Options) (*Tracker, error) {
	opts, err := o.withDefaults(x.Order())
	if err != nil {
		return nil, err
	}
	if x.NNZ() == 0 {
		return nil, fmt.Errorf("onlinecp: empty initial tensor")
	}
	n := x.Order()
	r := opts.Rank
	src := xrand.New(opts.Seed)
	factors := make([]*mat.Dense, n)
	for m, d := range x.Dims {
		factors[m] = mat.RandomUniform(d, opts.Rank, src)
	}
	grams := make([]*mat.Dense, n)
	for m := range factors {
		grams[m] = mat.Gram(factors[m])
	}
	// The initial ALS runs entirely in place: persistent MTTKRP buffers,
	// a shared denominator, and workspace-backed solves. The pool lives
	// for the tracker's lifetime (Close stops it); each sweep zeroes its
	// MTTKRP buffer, so the row-grouped parallel kernel reproduces the
	// flat scatter bit for bit.
	ws := mat.NewWorkspace()
	pool := par.New(opts.Threads)
	wss := mat.NewWorkspaceSet(pool.Threads())
	pk := mat.NewParKernels(pool, wss)
	pacc := mttkrp.NewParAccumulator(pool, wss, nil)
	kernels := make([]mttkrp.Kernel, n)
	mbuf := make([]*mat.Dense, n)
	for m := 0; m < n; m++ {
		kernels[m] = mttkrp.NewKernel(x, m, opts.Layout)
		mbuf[m] = mat.New(x.Dims[m], r)
	}
	denom := mat.New(r, r)
	for it := 0; it < opts.InitIters; it++ {
		for m := 0; m < n; m++ {
			M := mbuf[m]
			M.Zero()
			pacc.Accumulate(M, kernels[m], factors, "")
			hadamardExceptInto(denom, grams, m)
			pk.SolveRightRidgeInto(factors[m], M, denom)
			pk.GramInto(grams[m], factors[m])
		}
	}
	tr := &Tracker{
		opts:     opts,
		dims:     append([]int(nil), x.Dims...),
		factors:  factors,
		p:        make([]*mat.Dense, n),
		q:        make([]*mat.Dense, n),
		ws:       ws,
		pool:     pool,
		wss:      wss,
		pk:       pk,
		factorsG: make([]*mat.Dense, n),
		curGrams: make([]*mat.Dense, n),
		gramNew:  mat.New(r, r),
		dq:       mat.New(r, r),
		gk:       mat.New(r, r),
		denom:    denom,
	}
	for m := 0; m < n; m++ {
		tr.curGrams[m] = mat.New(r, r)
		if m == opts.StreamMode {
			continue
		}
		tr.p[m] = mttkrp.Compute(x, factors, m)
		q := mat.New(r, r)
		hadamardExceptInto(q, grams, m)
		tr.q[m] = q
	}
	return tr, nil
}

// Close stops the tracker's thread pool. The tracker must not be used
// after Close. Safe on a sequential (Threads <= 1) tracker.
func (t *Tracker) Close() { t.pool.Close() }

// Dims returns the current mode sizes.
func (t *Tracker) Dims() []int { return t.dims }

// Factors returns the current factor matrices.
func (t *Tracker) Factors() []*mat.Dense { return t.factors }

// Absorb ingests one batch: a sparse tensor whose streaming-mode
// coordinates are *global* (at or beyond the previous size) and whose
// other dims equal the tracker's.
func (t *Tracker) Absorb(batch *tensor.Tensor) error {
	n := len(t.dims)
	if batch.Order() != n {
		return fmt.Errorf("onlinecp: batch order %d, tracker order %d", batch.Order(), n)
	}
	s := t.opts.StreamMode
	for m, d := range batch.Dims {
		if m == s {
			if d < t.dims[m] {
				return fmt.Errorf("onlinecp: streaming mode shrank %d -> %d", t.dims[m], d)
			}
			continue
		}
		if d != t.dims[m] {
			return fmt.Errorf("%w: mode %d is %d, tracker has %d", ErrMultiAspect, m, d, t.dims[m])
		}
	}
	newRows := batch.Dims[s] - t.dims[s]
	if newRows == 0 && batch.NNZ() == 0 {
		return nil
	}
	for e := 0; e < batch.NNZ(); e++ {
		if int(batch.Coords[e*n+s]) < t.dims[s] {
			return fmt.Errorf("onlinecp: batch writes into already-absorbed streaming index %d", batch.Coords[e*n+s])
		}
	}

	factorsG := t.solveStreamRows(batch, newRows)
	for m := 0; m < n; m++ {
		if m == s {
			continue
		}
		t.foldIn(batch, factorsG, m)
	}
	t.dims[s] = batch.Dims[s]
	return nil
}

// solveStreamRows is Absorb's first kernel: solve the new streaming-
// mode rows against the current non-streaming factors — their normal
// equations involve only ΔX — and adopt the grown factor. It returns
// the per-batch factor view (the grown streaming factor plus aliases
// of the live factors) that the fold-in kernel consumes. Only the
// grown factor itself is a fresh allocation; the MTTKRP and solver
// scratch come from the tracker's workspace. Extracted from the
// whole-batch driver so a micro-batch path can absorb a handful of
// rows without restating the driver's bookkeeping.
func (t *Tracker) solveStreamRows(batch *tensor.Tensor, newRows int) []*mat.Dense {
	n := len(t.dims)
	s := t.opts.StreamMode
	r := t.opts.Rank
	grown := mat.StackRows(t.factors[s], mat.New(newRows, r))
	factorsG := t.factorsG
	copy(factorsG, t.factors)
	factorsG[s] = grown
	for m := 0; m < n; m++ {
		t.pk.GramInto(t.curGrams[m], t.factors[m])
	}
	mark := t.ws.Mark()
	Ms := t.ws.Take(batch.Dims[s], r)
	mttkrp.AccumulateIntoWS(Ms, batch, factorsG, s, t.ws)
	hadamardExceptInto(t.denom, t.curGrams, s)
	newBlock := grown.SliceRows(t.dims[s], batch.Dims[s])
	t.pk.SolveRightRidgeInto(newBlock, Ms.SliceRows(t.dims[s], batch.Dims[s]), t.denom)
	t.ws.Release(mark)
	t.factors[s] = grown
	t.pk.GramInto(t.gramNew, newBlock) // c_newᵀ c_new
	return factorsG
}

// foldIn is Absorb's second kernel, for one non-streaming mode: fold
// the batch into the mode's P_n/Q_n pair, then refresh A_n. KR uses
// the just-solved streaming rows plus the factors as they were when
// this batch's contribution is computed (modes refreshed earlier in
// the driver's loop contribute their new values, as in the published
// algorithm's sequential update). The P fold-in stays on the flat
// kernel: it accumulates onto the *live* P_n carried from previous
// batches, where regrouping entries would change the floating-point
// accumulation order.
func (t *Tracker) foldIn(batch *tensor.Tensor, factorsG []*mat.Dense, m int) {
	n := len(t.dims)
	s := t.opts.StreamMode
	mttkrp.AccumulateIntoWS(t.p[m], batch, factorsG, m, t.ws)
	t.dq.CopyFrom(t.gramNew)
	for k := 0; k < n; k++ {
		if k == m || k == s {
			continue
		}
		t.pk.GramInto(t.gk, factorsG[k])
		t.dq.Hadamard(t.dq, t.gk)
	}
	t.q[m].Add(t.q[m], t.dq)
	// In-place refresh: the solve reads only P_n and Q_n, and
	// factorsG[m] already aliases t.factors[m], so later modes see
	// the new values exactly as the sequential algorithm requires.
	t.pk.SolveRightRidgeInto(t.factors[m], t.p[m], t.q[m])
}

// hadamardExceptInto stores ∗_{k≠mode} grams[k] into dst, or the
// identity when there are no other modes. dst must not be one of the
// grams.
func hadamardExceptInto(dst *mat.Dense, grams []*mat.Dense, mode int) {
	first := true
	for k, g := range grams {
		if k == mode {
			continue
		}
		if first {
			dst.CopyFrom(g)
			first = false
		} else {
			dst.Hadamard(dst, g)
		}
	}
	if first {
		dst.SetIdentity()
	}
}
