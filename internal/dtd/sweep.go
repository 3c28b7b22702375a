package dtd

import (
	"fmt"
	"math"

	"dismastd/internal/layout"
	"dismastd/internal/mat"
	"dismastd/internal/mttkrp"
	"dismastd/internal/obs"
	"dismastd/internal/par"
	"dismastd/internal/sample"
	"dismastd/internal/tensor"
	"dismastd/internal/xrand"
)

// Comm is the communication seam of the Eq. (5) sweep: the three
// collective calls a rank makes, and the only place a distributed step
// differs from a centralized one once its kernels and owned rows are
// bound. Calls happen in the same order on every rank.
type Comm interface {
	// AllReduceSumInPlace replaces vec with its element-wise sum across
	// ranks — one mode's batch of Gram partials (Section IV-B3): 3R², or
	// R² for a mode with no old row.
	AllReduceSumInPlace(vec []float64) error
	// ReduceScalarSum returns the sum of x across ranks — the loss's
	// tensor-model inner product (Section IV-B4).
	ReduceScalarSum(x float64) (float64, error)
	// PostRows sends the mode's freshly solved owned rows to every replica
	// that reads them, without waiting for anyone; CollectRows, called once
	// the mode's Gram batch is reduced, lands the rows this rank reads from
	// their owners. Between the two a rank is inside the all-reduce, so by
	// the time it collects every peer has posted.
	PostRows(mode int, factor *mat.Dense) error
	CollectRows(mode int, factor *mat.Dense) error
}

// solo is the world-of-one Comm: a rank that owns every row already
// holds the global sums and has no replica to refresh.
type solo struct{}

func (solo) AllReduceSumInPlace([]float64) error        { return nil }
func (solo) ReduceScalarSum(x float64) (float64, error) { return x, nil }
func (solo) PostRows(int, *mat.Dense) error             { return nil }
func (solo) CollectRows(int, *mat.Dense) error          { return nil }

// step is what one streaming step fixes before anyone sweeps: read-only
// once NewSweep returns, and shared by every binding of the step.
type step struct {
	opts    Options
	prev    *State         // Ã_n and the old mode sizes
	comp    *tensor.Tensor // X \ X̃
	newDims []int
	growth  []*mat.Dense // the seeded random growth blocks a binding stacks under Ã_n

	cTilde     float64 // Σ_{r,s} ∗_k (Ã_kᵀÃ_k)
	compNormSq float64 // ‖X\X̃‖²
}

// Sweep is the one implementation of the Eq. (5) update: the per-mode
// phase sequence (MTTKRP → denominators → owned-row solve → rows posted
// → Gram refresh → rows collected), the Eq. (4) loss that reuses their
// intermediates, and the MaxIters/Tol loop around them.
//
// NewSweep validates a step and prepares what every rank shares; Bind
// attaches what differs per rank — its factor replicas, its per-mode
// kernels, the rows it owns and its Comm — and returns the engine Run
// drives. Step binds every row, whole-complement kernels and no Comm;
// internal/core binds each rank from its partition plan and cluster
// worker. The arithmetic is the same code either way, which is why a
// one-worker distributed step equals the centralized one bit for bit.
//
// Every buffer is sized in Bind, so a warm Run performs zero heap
// allocations apart from what the bound Comm does.
type Sweep struct {
	step

	full    []*mat.Dense // this rank's factor replicas, updated in place
	kernels []mttkrp.Kernel
	// The rank's owned rows, split twice in Bind. live rows — the ones a
	// complement entry names — are solved and Grammed every sweep, in the
	// binder's order; liveOld/liveNew split them at the old mode sizes:
	// old rows take the A^(0) rule, growth rows the A^(1) rule. The rest
	// are quiet: Eq. (5) maps them without looking at them (see
	// quietRows), so a sweep never walks them. blocks holds the live rows'
	// values column-major, which is what the dense phases compute on.
	live             [][]int32
	liveOld, liveNew [][]int32
	blocks           []liveBlock
	quiet            []quietRows
	comm             Comm
	// cold: bound from nil factors and not yet Run, so every old row of
	// full still holds Ã's bits (see quietPass).
	cold bool

	// Replicated R×R Gram state. Each mode's three blocks are views into
	// one 3R² buffer, so the partials are computed, reduced and kept in
	// place: gram0 = A^(0)ᵀA^(0), gram1 = A^(1)ᵀA^(1), cross = ÃᵀA^(0).
	gbuf                [][]float64
	gram0, gram1, cross []*mat.Dense
	stask               solveTask
	gtask               gramTask
	qtask               quietGramTask
	mtask               materializeTask

	denoms
	hT    *mat.Dense   // hprodᵀ: column c of hprod as one contiguous row
	chol  *mat.Dense   // ridge-Cholesky factor of the denominator being solved against
	mbuf  []*mat.Dense // per-mode MTTKRP buffers
	lastM *mat.Dense   // final mode's MTTKRP, reused by the loss
	fullG []*mat.Dense // per-mode gram0+gram1, rebuilt by the loss
	h     *mat.Dense   // Hadamard-chain loss scratch

	// Sampled-solver state (nil under the exact solver): the sketch Ĝ of
	// the Khatri-Rao Gram stands in for the d1 chain.
	smp *sample.Sampler
	gs  *mat.Dense

	pool *par.Pool // nil when Threads <= 1
	wss  *mat.WorkspaceSet
	pk   *mat.ParKernels // the sampler's Gram; the exact sweep runs on blocks
	pacc *mttkrp.ParAccumulator

	trace []float64
	work  float64

	// Instrumentation, resolved in Bind so sweeps never build strings.
	// obs, and with it every handle, may be nil.
	obs       *obs.Obs
	names     []sweepNames
	cMttkrp   *obs.Counter // mttkrp.rows: entries accumulated
	cSolve    *obs.Counter // solve.rows: factor rows solved, live rows per sweep
	cImplicit *obs.Counter // solve.rows.implicit: quiet rows written out, once per Run
}

// quietRows is one mode's owned rows no complement entry names. Their
// MTTKRP rows are identically zero, which makes Eq. (5) a fixed map of
// data the sweeps never change: an old row solves to
//
//	A⁽⁰⁾[i] = (μ·Ã[i]·H + 0)·D₀⁻¹ = Ã[i]·T,   T = μ·H·D₀⁻¹ (R×R),
//
// reading Ã and never the row's previous value, and a growth row solves
// to exactly +0. So from a mode's first solve on the rows are implicit:
// the solve produces T next to the live rows (same factor of D₀), the
// rows' share of the mode's Gram batch follows from T and one
// precomputed G̃q in O(R³), and full keeps whatever it held until
// materialize writes Ã[i]·T out when Run returns. A mode whose
// complement touches every row has no quietRows state at all.
type quietRows struct {
	old, grown []int32 // below / at or above the old mode size, in the binder's order

	gq *mat.Dense // G̃q = Σ_old Ã[i]ᵀÃ[i]
	t  *mat.Dense // T of the mode's last solve
	// The rows' share of the mode's Gram batch, laid out like gbuf and
	// added to it before every all-reduce: what full holds while the mode
	// is explicit, T-derived (and no growth share) once it is implicit.
	part          []float64
	g0, g1, cross *mat.Dense
	implicit      bool
}

func (q *quietRows) any() bool { return len(q.old)+len(q.grown) > 0 }

// liveBlock is one mode's live rows as R contiguous columns — column c
// lists entry c of every row, in liveOld / liveNew order — which makes
// the sweep's dense half long-vector work (internal/mat/block.go): the
// numerator R axpys per column, the substitutions on the block as it
// lies, every Gram entry one dot product with a register accumulator.
// MTTKRP and the row exchange keep reading the row-major replicas in
// full, so a solve scatters its rows back; between solves block and
// replica hold the same bits.
//
// tildeT (Ã's rows, fixed for the step) and oldT (A⁽⁰⁾'s) cover the live
// old rows plus, when the mode has quiet old rows, nT = R more entries
// per column — the identity in tildeT — so the quiet rows' T (see
// quietRows) comes out of the live rows' numerator and factorisation.
// newT is A⁽¹⁾'s live rows. Model-sized only when every row is live.
type liveBlock struct {
	nOld, nT, nNew     int
	tildeT, oldT, newT []float64 // strides nOld+nT, nOld+nT, nNew
}

// sweepNames are one mode's span names. The Comm names the third phase:
// "gram" when the refresh is local, "allreduce" when it is a
// collective; only a bound Comm has an exchange phase.
type sweepNames struct {
	mttkrp, chunk, solve, gram, exchange string
}

// NewSweep validates one streaming step from prev to snapshot and
// prepares what all of its bindings share: the relative complement,
// the seeded growth blocks and the loss constants. prev is not modified.
func NewSweep(prev *State, snapshot *tensor.Tensor, o Options) (*Sweep, error) {
	opts, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	if snapshot.Order() != len(prev.Dims) {
		return nil, fmt.Errorf("%w: order %d vs %d", ErrDimsMismatch, snapshot.Order(), len(prev.Dims))
	}
	for m, d := range snapshot.Dims {
		if d < prev.Dims[m] {
			return nil, fmt.Errorf("%w: mode %d shrank %d -> %d", ErrDimsMismatch, m, prev.Dims[m], d)
		}
	}
	for m, f := range prev.Factors {
		if f.Rows != prev.Dims[m] || f.Cols != opts.Rank {
			return nil, fmt.Errorf("dtd: previous factor %d is %dx%d, want %dx%d", m, f.Rows, f.Cols, prev.Dims[m], opts.Rank)
		}
	}

	// A prior with no row in some mode spans no cell: X \ X̃ is X, and the
	// step sweeps the snapshot itself instead of a copy of it.
	sp := opts.Obs.Span("plan/complement")
	comp := snapshot
	if !emptyBox(prev.Dims) {
		comp = snapshot.Complement(prev.Dims)
	}
	sp.End()

	sp = opts.Obs.Span("plan/init")
	n := snapshot.Order()
	src := xrand.New(opts.Seed)
	growth := make([]*mat.Dense, n)
	gramsTilde := make([]*mat.Dense, n)
	for m := 0; m < n; m++ {
		growth[m] = mat.RandomUniform(snapshot.Dims[m]-prev.Dims[m], opts.Rank, src)
		gramsTilde[m] = mat.Gram(prev.Factors[m])
	}
	sp.End()
	return &Sweep{step: step{
		opts:       opts,
		prev:       prev,
		comp:       comp,
		newDims:    append([]int(nil), snapshot.Dims...),
		growth:     growth,
		cTilde:     mat.SumAll(mat.HadamardAll(gramsTilde...)),
		compNormSq: comp.NormSq(),
	}}, nil
}

// emptyBox reports whether the prefix box of the given mode sizes holds
// no cell.
func emptyBox(dims []int) bool {
	for _, d := range dims {
		if d == 0 {
			return true
		}
	}
	return false
}

// Complement returns X \ X̃, the only tensor data the step touches — the
// snapshot itself when the prior is empty.
func (e *Sweep) Complement() *tensor.Tensor { return e.comp }

// stack returns a fresh copy of the step's starting point: the previous
// factors over the seeded growth blocks. Every rank starts from the same
// bits.
func (e *Sweep) stack() []*mat.Dense {
	out := make([]*mat.Dense, len(e.growth))
	for m, g := range e.growth {
		out[m] = mat.StackRows(e.prev.Factors[m], g)
	}
	return out
}

// Bind returns the engine for one rank of the step. factors are the
// rank's replicas of the stacked factors, adopted and updated in place —
// the warm factors a driver carries across a view change — or nil for
// the step's starting point, which the binding then stacks itself (span
// plan/stack), each rank its own copy. An engine bound from nil is cold
// until its first Run returns: Run may assume the old rows still hold
// Ã's bits, so nothing may write them in between.
// kernels[m] covers the rank's share of the complement for mode m;
// owned[m] lists the rows of mode m the rank solves. smp is the rank's
// leverage-score sampler, nil under the exact solver. A nil comm is the
// world of one. o receives the rank's spans and counters and may be
// nil. Close the engine when done.
//
// The rows a sweep visits are the ones the kernels name: an owned row
// in none of its mode's kernel groups is quiet (see quietRows). The
// sampled solver names every row — its leverage scores read all of them
// after every solve.
func (e *Sweep) Bind(factors []*mat.Dense, kernels []mttkrp.Kernel, owned [][]int32, smp *sample.Sampler, comm Comm, o *obs.Obs) *Sweep {
	named := make([][]bool, len(kernels))
	if smp == nil {
		for m, k := range kernels {
			named[m] = make([]bool, k.ModeSize())
			for g := 0; g < k.NumRows(); g++ {
				named[m][k.GroupRow(g)] = true
			}
		}
	}
	return e.bind(factors, kernels, owned, named, smp, comm, o)
}

// bind is Bind with the live rows as data: named[m][i] reports whether
// row i of mode m is live, a nil named[m] that every row is.
func (e *Sweep) bind(factors []*mat.Dense, kernels []mttkrp.Kernel, owned [][]int32, named [][]bool, smp *sample.Sampler, comm Comm, o *obs.Obs) *Sweep {
	n := len(e.newDims)
	r := e.opts.Rank
	cold := factors == nil
	if cold {
		sp := o.Span("plan/stack")
		factors = e.stack()
		sp.End()
	}
	gramPhase, exchangePhase := "mode%d/allreduce", "mode%d/exchange"
	if comm == nil {
		comm = solo{}
		gramPhase, exchangePhase = "mode%d/gram", ""
	}
	b := &Sweep{
		step:      e.step,
		full:      factors,
		kernels:   kernels,
		live:      make([][]int32, n),
		liveOld:   make([][]int32, n),
		liveNew:   make([][]int32, n),
		blocks:    make([]liveBlock, n),
		quiet:     make([]quietRows, n),
		comm:      comm,
		cold:      cold,
		gbuf:      make([][]float64, n),
		gram0:     make([]*mat.Dense, n),
		gram1:     make([]*mat.Dense, n),
		cross:     make([]*mat.Dense, n),
		denoms:    newDenoms(r),
		hT:        mat.New(r, r),
		chol:      mat.New(r, r),
		mbuf:      make([]*mat.Dense, n),
		fullG:     make([]*mat.Dense, n),
		h:         mat.New(r, r),
		smp:       smp,
		pool:      par.New(e.opts.Threads),
		trace:     make([]float64, 0, e.opts.MaxIters),
		obs:       o,
		names:     make([]sweepNames, n),
		cMttkrp:   o.Counter("mttkrp.rows"),
		cSolve:    o.Counter("solve.rows"),
		cImplicit: o.Counter("solve.rows.implicit"),
	}
	b.stask.e, b.gtask.e, b.qtask.e, b.mtask.e = b, b, b, b
	b.wss = mat.NewWorkspaceSet(b.pool.Threads())
	b.pk = mat.NewParKernels(b.pool)
	b.pacc = mttkrp.NewParAccumulator(b.pool, b.wss, o)
	if smp != nil {
		b.gs = mat.New(r, r)
	}
	for m := 0; m < n; m++ {
		b.gbuf[m], b.gram0[m], b.gram1[m], b.cross[m] = newGramBatch(r)
		b.mbuf[m] = mat.New(factors[m].Rows, r)
		b.fullG[m] = mat.New(r, r)
		b.splitRows(m, owned[m], named[m])
		if q := &b.quiet[m]; q.any() {
			q.gq, q.t = mat.New(r, r), mat.New(r, r)
			q.part, q.g0, q.g1, q.cross = newGramBatch(r)
		}
		b.names[m] = sweepNames{
			mttkrp: fmt.Sprintf("mode%d/mttkrp", m),
			chunk:  fmt.Sprintf("mode%d/mttkrp.chunk", m),
			solve:  fmt.Sprintf("mode%d/solve", m),
			gram:   fmt.Sprintf(gramPhase, m),
		}
		if exchangePhase != "" {
			b.names[m].exchange = fmt.Sprintf(exchangePhase, m)
		}
	}
	return b
}

// splitRows sorts the rank's owned rows of one mode into the live and
// quiet lists — counted first, so each list is carved at its final size
// from one allocation — and builds the mode's live block from the bound
// factors. named is bind's.
func (e *Sweep) splitRows(mode int, owned []int32, named []bool) {
	const liveOld, liveNew, quietOld, quietGrown, live = 0, 1, 2, 3, 4
	kind := func(row int32) int {
		k := liveOld
		if int(row) >= e.prev.Dims[mode] {
			k = liveNew
		}
		if named != nil && !named[row] {
			k += quietOld
		}
		return k
	}
	var n [5]int
	for _, row := range owned {
		n[kind(row)]++
	}
	n[live] = n[liveOld] + n[liveNew]
	slab := make([]int32, len(owned)+n[live])
	var lists [5][]int32
	for k, c := range n {
		lists[k], slab = slab[:0:c], slab[c:]
	}
	for _, row := range owned {
		k := kind(row)
		lists[k] = append(lists[k], row)
		if k <= liveNew {
			lists[live] = append(lists[live], row)
		}
	}
	e.live[mode], e.liveOld[mode], e.liveNew[mode] = lists[live], lists[liveOld], lists[liveNew]
	e.quiet[mode].old, e.quiet[mode].grown = lists[quietOld], lists[quietGrown]

	r := e.opts.Rank
	b := &e.blocks[mode]
	b.nOld, b.nNew = n[liveOld], n[liveNew]
	if n[quietOld] > 0 {
		b.nT = r
	}
	so := b.nOld + b.nT
	blk := make([]float64, r*(2*so+b.nNew))
	b.tildeT, b.oldT, b.newT = blk[:r*so], blk[r*so:2*r*so], blk[2*r*so:]
	factor, tilde := e.full[mode], e.prev.Factors[mode]
	for i, row := range lists[liveOld] {
		for c, v := range tilde.Row(int(row)) {
			b.tildeT[c*so+i], b.oldT[c*so+i] = v, factor.At(int(row), c)
		}
	}
	for k := 0; k < b.nT; k++ {
		b.tildeT[k*so+b.nOld+k] = 1
	}
	for i, row := range lists[liveNew] {
		for c, v := range factor.Row(int(row)) {
			b.newT[c*b.nNew+i] = v
		}
	}
}

// newGramBatch returns one mode's 3R² Gram batch and its three R×R
// blocks as views into it: A⁽⁰⁾ᵀA⁽⁰⁾, A⁽¹⁾ᵀA⁽¹⁾, ÃᵀA⁽⁰⁾.
func newGramBatch(r int) (buf []float64, g0, g1, cross *mat.Dense) {
	buf = make([]float64, 3*r*r)
	return buf, mat.NewFrom(r, r, buf[:r*r]), mat.NewFrom(r, r, buf[r*r:2*r*r]), mat.NewFrom(r, r, buf[2*r*r:])
}

// bindSolo binds the world of one: every row owned, kernels over the
// whole complement, the step's starting point, no Comm.
func (e *Sweep) bindSolo() (*Sweep, error) {
	n := len(e.newDims)
	kernels := make([]mttkrp.Kernel, n)
	owned := make([][]int32, n)
	sp := e.opts.Obs.Span("plan/compile")
	for m := range kernels {
		kernels[m] = mttkrp.NewKernel(e.comp, m, layout.Compiled)
	}
	sp.End()
	for m := range owned {
		owned[m] = make([]int32, e.newDims[m])
		for i := range owned[m] {
			owned[m][i] = int32(i)
		}
	}
	var smp *sample.Sampler
	if e.opts.Solver == sample.Sampled {
		sp = e.opts.Obs.Span("plan/sample-index")
		var err error
		smp, err = sample.New(e.comp, nil, e.opts.Rank, e.opts.Samples, e.opts.Seed, 0)
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	return e.Bind(nil, kernels, owned, smp, nil, e.opts.Obs), nil
}

// Close releases the engine's pool goroutines.
func (e *Sweep) Close() { e.pool.Close() }

// Factors returns the rank's factor replicas as the sweeps left them.
func (e *Sweep) Factors() []*mat.Dense { return e.full }

// LossTrace returns √L after each sweep of the last Run.
func (e *Sweep) LossTrace() []float64 { return e.trace }

// Work returns the abstract work units (the simtime cost model's flop
// counts) the engine's compute phases have performed since Bind.
func (e *Sweep) Work() float64 { return e.work }

// Run establishes the replicated Gram state from the current factors
// and then sweeps until MaxIters or until the relative loss change
// falls below Tol. before, when non-nil, runs ahead of each sweep and
// aborts the run by returning an error (the elastic driver's scripted
// crashes). A Comm error aborts the run likewise, leaving the live rows
// at an arbitrary point of the sweep; a rebound engine restarts warm.
//
// Every mode starts explicit — the Gram state is taken from what the
// factors hold, quiet rows included, which is what makes a warm start
// from any factors correct — and turns implicit at its first solve.
// However Run returns, the quiet rows of every implicit mode are
// written out first, so Factors never shows a caller anything but
// ordinary rows: Ã[i]·T of the mode's last completed solve. (The
// distributed gather adopts a rank's replica as the result on the
// strength of that: Run never returns with an implicit mode.)
func (e *Sweep) Run(before func(sweep int) error) error {
	defer func() {
		e.materialize()
		e.cold = false
	}()
	for m := range e.full {
		e.quietPass(m)
		if err := e.reduceGrams(m); err != nil {
			return err
		}
		if e.smp != nil {
			e.refreshDist(m)
		}
	}
	e.trace = e.trace[:0]
	prevLoss := math.Inf(1)
	for sweep := 0; sweep < e.opts.MaxIters; sweep++ {
		if before != nil {
			if err := before(sweep); err != nil {
				return err
			}
		}
		loss, err := e.sweep(sweep)
		if err != nil {
			return err
		}
		e.trace = append(e.trace, loss)
		if relChange(prevLoss, loss) < e.opts.Tol {
			break
		}
		prevLoss = loss
	}
	return nil
}

func relChange(prev, cur float64) float64 {
	if math.IsInf(prev, 1) {
		return math.Inf(1)
	}
	return math.Abs(prev-cur) / math.Max(prev, 1e-12)
}

// sweep runs one ALS sweep — the per-mode phases, then the loss — and
// returns the sweep's loss.
func (e *Sweep) sweep(iter int) (float64, error) {
	e.obs.SetIter(iter)
	for m := range e.full {
		nm := &e.names[m]

		// 1. MTTKRP over this rank's mode-m entries, or the leverage-score
		// sketch of them.
		sp := e.obs.Span(nm.mttkrp)
		e.mttkrp(m)
		sp.End()

		// 2. Eq. (5) row update of the owned rows. Under the sampled
		// solver Ĝ estimates the same ∗_{k≠m}(A_kᵀA_k) the exact d1 chain
		// builds; the g0prod/hprod chains are O(R²), not data-dependent,
		// and stay exact.
		sp = e.obs.Span(nm.solve)
		e.fill(e.gram0, e.gram1, e.cross, m, e.opts.Mu, e.gs)
		e.updateOwnedRows(m)
		sp.End()

		// 3. Post the new rows to the replicas that read them — a phase
		// only a bound Comm has — so they travel while the Grams reduce.
		if err := e.exchange(m, false); err != nil {
			return 0, err
		}

		// 4. Refresh the mode's Gram blocks from the new rows.
		if err := e.reduceGrams(m); err != nil {
			return 0, err
		}

		// 5. Land the rows this rank reads: every peer posted before it
		// entered the all-reduce that just returned.
		if err := e.exchange(m, true); err != nil {
			return 0, err
		}
		if e.smp != nil {
			e.refreshDist(m)
		}
	}

	sp := e.obs.Span("loss")
	defer sp.End()
	inner, err := e.comm.ReduceScalarSum(e.lossLocalInner())
	if err != nil {
		return 0, err
	}
	return e.lossFinish(inner), nil
}

// exchange runs one half of the mode's row exchange under its span.
func (e *Sweep) exchange(mode int, collect bool) error {
	sp := obs.Span{}
	if name := e.names[mode].exchange; name != "" {
		sp = e.obs.Span(name)
	}
	defer sp.End()
	if collect {
		return e.comm.CollectRows(mode, e.full[mode])
	}
	return e.comm.PostRows(mode, e.full[mode])
}

// mttkrp fills the mode's buffer with the MTTKRP of this rank's
// entries, recording it as the loss's reusable lastM. (The grouped
// kernels reproduce the flat scatter bit for bit: each output row
// starts at +0 and its entries accumulate in entry-list order — only
// live rows are ever written, so only they are re-zeroed; quiet rows
// stay +0 from allocation.) Under
// the sampled solver the buffer holds the sketched M̂ instead and gs the
// sketched Khatri-Rao Gram Ĝ, so the reuse-based loss — and the Tol
// stop it drives — is an unbiased estimate; LossAgainst gives the exact
// one.
func (e *Sweep) mttkrp(mode int) {
	M := e.mbuf[mode]
	cost := float64(len(e.full)) * float64(M.Cols)
	if e.smp != nil {
		matched := e.smp.Sample(mode, e.full, e.pacc, e.pk, M, e.gs, e.names[mode].chunk)
		// S draws each build a Khatri-Rao row (plus the S×R Gram), and
		// the matched entries pay the usual per-entry accumulate.
		e.work += float64(e.smp.Samples()+matched) * cost
		e.cMttkrp.Add(int64(matched))
	} else {
		for _, s := range e.live[mode] {
			zeroRow(M.Row(int(s)))
		}
		e.pacc.Accumulate(M, e.kernels[mode], e.full, e.names[mode].chunk)
		nnz := e.kernels[mode].NNZ()
		e.work += float64(nnz) * cost
		e.cMttkrp.Add(int64(nnz))
	}
	e.lastM = M
}

// refreshDist rebuilds mode m's draw distribution from this rank's
// factor replica and the mode's full Gram. Valid only when every row of
// the replica is globally fresh — which the distributed binding
// guarantees by broadcasting rows under the sampled solver.
func (e *Sweep) refreshDist(m int) {
	e.sum.Add(e.gram0[m], e.gram1[m])
	e.smp.Refresh(m, e.full[m], e.sum)
}

// updateOwnedRows applies the Eq. (5) row-wise updates to the live rows
// this rank owns in the given mode — on the mode's live block, scattered
// back to the replica — and turns the mode's quiet rows implicit.
func (e *Sweep) updateOwnedRows(mode int) {
	r := e.opts.Rank
	b := &e.blocks[mode]
	q := &e.quiet[mode]
	e.stask.mode = mode
	factored := 0 // ridge factorisations this solve performs: D₀'s, D₁'s
	if so := b.nOld + b.nT; so > 0 {
		factored++
		mat.TransposeInto(e.hT, e.hprod)
		mat.RidgeCholeskyInto(e.chol, e.d0, e.wss.At(0))
		e.stask.old = true
		e.pool.For(so, &e.stask)
		if b.nT > 0 {
			// T rode the old block as R extra rows — identity rows of the Ã
			// block, no MTTKRP row — so quiet and live rows were solved
			// against one ridge-Cholesky factor of D₀ by construction. The
			// quiet rows' Gram share under it: ÃᵀA⁰ = G̃q·T, A⁰ᵀA⁰ = Tᵀ·G̃q·T.
			for c := 0; c < r; c++ {
				for i, v := range b.oldT[c*so+b.nOld:][:r] {
					q.t.Set(i, c, v)
				}
			}
			mat.MulRowsInto(q.cross, q.gq, q.t, 0, r)
			q.g0.Zero()
			mat.AccumulateCrossGramRows(q.g0, q.t, q.cross, 0, r)
		}
	}
	if b.nNew > 0 {
		factored++
		mat.RidgeCholeskyInto(e.chol, e.d1, e.wss.At(0))
		e.stask.old = false
		e.pool.For(b.nNew, &e.stask)
	}
	if q.any() && !q.implicit {
		// A growth row with no entry solves to exactly +0 (a zero
		// numerator through a positive-diagonal factor): written once,
		// after which it has no Gram share and is never visited again.
		for _, s := range q.grown {
			zeroRow(e.full[mode].Row(int(s)))
		}
		q.g1.Zero()
		q.implicit = true
	}
	// Old rows pay the μ·Ã·Hprod product plus the solve (2R² each), new
	// rows just the solve (R²); each R×R factorisation performed is R³.
	// T is R more old rows and its Gram share two R×R products.
	rr := float64(r) * float64(r)
	e.work += (2*float64(b.nOld+b.nT)+float64(b.nNew))*rr + float64(factored)*float64(r)*rr + 2*float64(b.nT)*rr
	e.cSolve.Add(int64(b.nOld + b.nNew))
}

// solveTask solves entries [lo, hi) of every column of the mode's old or
// new block against e.chol: the numerator built in place (old rows:
// μ·Ã·Hprod + M, column by column; new rows: M), the substitutions on
// the block as it lies, the solved rows scattered to the replica. Each
// live row's values depend only on its own Ã and MTTKRP rows and the
// shared factor, so the bits do not depend on the split.
type solveTask struct {
	e    *Sweep
	mode int
	old  bool
}

func (t *solveTask) RunChunk(lo, hi, tid int) {
	e := t.e
	r := e.opts.Rank
	b := &e.blocks[t.mode]
	factor, M := e.full[t.mode], e.mbuf[t.mode]
	rows, blk, stride := e.liveNew[t.mode], b.newT, b.nNew
	if t.old {
		rows, blk, stride = e.liveOld[t.mode], b.oldT, b.nOld+b.nT
		for c := 0; c < r; c++ {
			mat.MulColumnsInto(blk[c*stride+lo:c*stride+hi], b.tildeT[lo:], stride, e.hT.Row(c))
		}
	}
	// Entries past the list are T's: scaled, but no MTTKRP row to add and
	// no replica row to write. (The conversion keeps μ·x a rounded product
	// of its own, as the row-major code's separate scaling pass had it.)
	live := min(hi, len(rows))
	mu := e.opts.Mu
	for i := lo; i < live; i++ {
		for c, mv := range M.Row(int(rows[i])) {
			if t.old {
				mv += float64(mu * blk[c*stride+i])
			}
			blk[c*stride+i] = mv
		}
	}
	for i := max(lo, live); i < hi; i++ {
		for c := 0; c < r; c++ {
			blk[c*stride+i] *= mu
		}
	}
	mat.CholeskySolveColumns(e.chol, blk, stride, lo, hi)
	for i := lo; i < live; i++ {
		out := factor.Row(int(rows[i]))
		for c := range out {
			out[c] = blk[c*stride+i]
		}
	}
}

// quietPass is the once-per-Run walk over the mode's quiet rows: G̃q,
// and the rows' Gram share from what full holds — Run's explicit
// starting point. A mode with no quiet row skips it, span included.
//
// On a cold engine every quiet old row of full is Ã's row bit for bit,
// so G̃q, the rows' A⁰ᵀA⁰ share and their ÃᵀA⁰ share are one and the
// same sum — same terms, same order, same zero-skips: the walk
// accumulates G̃q alone and the other two are copies.
func (e *Sweep) quietPass(mode int) {
	q := &e.quiet[mode]
	if !q.any() {
		return
	}
	sp := e.obs.Span("plan/quiet")
	r := e.opts.Rank
	e.qtask.mode = mode
	e.pool.For(r, &e.qtask)
	mat.MirrorUpper(q.gq)
	mat.MirrorUpper(q.g1)
	if e.cold {
		q.g0.CopyFrom(q.gq)
		q.cross.CopyFrom(q.gq)
	} else {
		mat.MirrorUpper(q.g0)
	}
	// Three outer products per old row (G̃q with the usual two), one per
	// growth row: Work is the abstract flop model, charged the same
	// whichever way the sums were obtained.
	e.work += (3*float64(len(q.old)) + float64(len(q.grown))) * float64(r) * float64(r)
	sp.End()
}

// materialize writes out the quiet rows of every implicit mode,
// A⁽⁰⁾[i] = Ã[i]·T, and returns the modes to explicit: once per Run, on
// every way out of it.
func (e *Sweep) materialize() {
	for m := range e.quiet {
		q := &e.quiet[m]
		if !q.implicit {
			continue
		}
		q.implicit = false
		e.cImplicit.Add(int64(len(q.old) + len(q.grown)))
		if len(q.old) == 0 {
			continue
		}
		sp := e.obs.Span("materialize")
		e.mtask.mode = m
		e.pool.For(len(q.old), &e.mtask)
		e.work += float64(len(q.old)) * float64(e.opts.Rank) * float64(e.opts.Rank)
		sp.End()
	}
}

// materializeTask writes quiet old rows [lo, hi) of the mode's list.
// Each output row depends only on its own Ã row and T, so the bits do
// not depend on the split.
type materializeTask struct {
	e    *Sweep
	mode int
}

func (t *materializeTask) RunChunk(lo, hi, tid int) {
	e := t.e
	q := &e.quiet[t.mode]
	factor := e.full[t.mode]
	tilde := e.prev.Factors[t.mode]
	for _, s := range q.old[lo:hi] {
		out := factor.Row(int(s))
		zeroRow(out)
		for k, av := range tilde.Row(int(s)) {
			if av == 0 {
				continue
			}
			for c, bv := range q.t.Row(k) {
				out[c] += av * bv
			}
		}
	}
}

// reduceGrams recomputes this rank's partial ÃᵀA⁰, A⁰ᵀA⁰, A¹ᵀA¹ over
// its live rows straight into the mode's Gram buffer, adds the quiet
// rows' share, and all-reduces the buffer in place, which leaves the
// replicated state refreshed. A mode with no old row has nothing in its
// A⁰ᵀA⁰ and ÃᵀA⁰ blocks on any rank, so its batch is the A¹ᵀA¹ block
// alone: R², not 3R². It runs under the Gram phase's span.
func (e *Sweep) reduceGrams(mode int) error {
	sp := e.obs.Span(e.names[mode].gram)
	defer sp.End()
	r := e.opts.Rank
	e.gtask.mode = mode
	e.pool.For(r, &e.gtask)
	mat.MirrorUpper(e.gram0[mode])
	mat.MirrorUpper(e.gram1[mode])
	if q := &e.quiet[mode]; q.any() {
		buf := e.gbuf[mode]
		for i, v := range q.part {
			buf[i] += v
		}
	}
	// Old rows contribute two outer products (G⁰ and the cross term),
	// new rows one.
	e.work += (2*float64(len(e.liveOld[mode])) + float64(len(e.liveNew[mode]))) * float64(r) * float64(r)
	batch := e.gbuf[mode]
	if e.prev.Dims[mode] == 0 {
		batch = e.gram1[mode].Data
	}
	return e.comm.AllReduceSumInPlace(batch)
}

// gramTask evaluates rows [lo, hi) of the mode's three Gram partials
// from its live block: entry (i, c) is the dot product of columns i and
// c over the live rows in list order from +0 — the row-major
// outer-product loop's sequence for that entry minus its zero-skips,
// which only ever kept a ±0 out of such a sum. A⁰ᵀA⁰ and A¹ᵀA¹ get
// their upper triangle and the caller mirrors them after the barrier; a
// bottom row's pass reaches left of the diagonal to stay four wide,
// inside its own chunk, and the mirror rewrites those entries with the
// same bits. ÃᵀA⁰ is not symmetric and is computed whole.
type gramTask struct {
	e    *Sweep
	mode int
}

func (t *gramTask) RunChunk(lo, hi, tid int) {
	e := t.e
	r := e.opts.Rank
	b := &e.blocks[t.mode]
	g0, g1, cross := e.gram0[t.mode], e.gram1[t.mode], e.cross[t.mode]
	so := b.nOld + b.nT
	for i := lo; i < hi; i++ {
		c0 := min(i, max(r-4, 0))
		mat.DotColumnsInto(g0.Row(i)[c0:], b.oldT[i*so:][:b.nOld], b.oldT[c0*so:], so)
		mat.DotColumnsInto(cross.Row(i), b.tildeT[i*so:][:b.nOld], b.oldT, so)
		mat.DotColumnsInto(g1.Row(i)[c0:], b.newT[i*b.nNew:][:b.nNew], b.newT[c0*b.nNew:], b.nNew)
	}
}

// quietGramTask evaluates rows [lo, hi) of the quiet rows' Gram share,
// G̃q alongside, by the row-major outer-product loop with output rows as
// the parallel axis — once per Run, over rows that are in no block.
// Every chunk scans the rows in order, so each entry accumulates the
// sequential sequence; symmetric blocks get upper triangles, mirrored by
// quietPass. A cold walk computes G̃q alone (see quietPass).
type quietGramTask struct {
	e    *Sweep
	mode int
}

func (t *quietGramTask) RunChunk(lo, hi, tid int) {
	e := t.e
	factor := e.full[t.mode]
	tilde := e.prev.Factors[t.mode]
	q := &e.quiet[t.mode]
	for i := lo; i < hi; i++ {
		zeroRow(q.g0.Row(i))
		zeroRow(q.g1.Row(i))
		zeroRow(q.cross.Row(i))
		zeroRow(q.gq.Row(i))
	}
	if e.cold {
		for _, s := range q.old {
			trow := tilde.Row(int(s))
			for i := lo; i < hi; i++ {
				if tv := trow[i]; tv != 0 {
					drow := q.gq.Row(i)[i:]
					for c, bv := range trow[i:] {
						drow[c] += tv * bv
					}
				}
			}
		}
	} else {
		for _, s := range q.old {
			row := factor.Row(int(s))
			trow := tilde.Row(int(s))
			for i := lo; i < hi; i++ {
				if av := row[i]; av != 0 {
					drow := q.g0.Row(i)[i:]
					for c, bv := range row[i:] {
						drow[c] += av * bv
					}
				}
				if tv := trow[i]; tv != 0 {
					drow := q.cross.Row(i)
					for c, bv := range row {
						drow[c] += tv * bv
					}
					drow = q.gq.Row(i)[i:]
					for c, bv := range trow[i:] {
						drow[c] += tv * bv
					}
				}
			}
		}
	}
	for _, s := range q.grown {
		row := factor.Row(int(s))
		for i := lo; i < hi; i++ {
			av := row[i]
			if av == 0 {
				continue
			}
			drow := q.g1.Row(i)[i:]
			for c, bv := range row[i:] {
				drow[c] += av * bv
			}
		}
	}
}

func zeroRow(row []float64) {
	for i := range row {
		row[i] = 0
	}
}

// lossLocalInner computes this rank's share of the tensor-model inner
// product <X\X̃, [[A]]> by reusing the final mode's MTTKRP rows (live
// rows only — a quiet row's is zero) — no second pass over the tensor
// data.
func (e *Sweep) lossLocalInner() float64 {
	last := len(e.full) - 1
	var inner float64
	for _, s := range e.live[last] {
		mrow := e.lastM.Row(int(s))
		arow := e.full[last].Row(int(s))
		for c := range mrow {
			inner += mrow[c] * arow[c]
		}
	}
	e.work += float64(len(e.live[last])) * float64(e.opts.Rank)
	return inner
}

// lossFinish evaluates √L of Eq. (4) from the reduced inner product and
// the replicated Gram state: the old-region term from the Gram/cross
// products, the new-data term from the complement norm, the inner
// product, and the difference of full and old-block model norms.
func (e *Sweep) lossFinish(inner float64) float64 {
	for m := range e.full {
		e.fullG[m].Add(e.gram0[m], e.gram1[m])
	}
	mat.HadamardAllInto(e.h, e.gram0...)
	model0Sq := mat.SumAll(e.h)
	mat.HadamardAllInto(e.h, e.fullG...)
	modelFullSq := mat.SumAll(e.h)
	mat.HadamardAllInto(e.h, e.cross...)
	crossOld := mat.SumAll(e.h)

	oldTerm := e.opts.Mu * (e.cTilde + model0Sq - 2*crossOld)
	newTerm := e.compNormSq - 2*inner + (modelFullSq - model0Sq)
	l := oldTerm + newTerm
	if l < 0 {
		l = 0 // round-off guard
	}
	return math.Sqrt(l)
}

// denoms holds the Eq. (5) denominator set for one mode, shared by the
// whole-sweep engine and the event-granularity row updater.
type denoms struct {
	d0, d1 *mat.Dense // D_0, D_1
	g0prod *mat.Dense // ∗_{k≠n} gram0[k]
	hprod  *mat.Dense // ∗_{k≠n} cross[k]
	sum    *mat.Dense // gram0[k]+gram1[k] scratch
}

func newDenoms(r int) denoms {
	return denoms{d0: mat.New(r, r), d1: mat.New(r, r), g0prod: mat.New(r, r), hprod: mat.New(r, r), sum: mat.New(r, r)}
}

// fill computes the three Hadamard chains d1 = ∗_{k≠mode}(gram0+gram1),
// g0prod = ∗_{k≠mode} gram0 and hprod = ∗_{k≠mode} cross from the
// cached per-mode Gram blocks — the identity for first-order tensors
// (no other modes) — and composes d0 = d1 − (1−μ)·g0prod. A non-nil
// sketch replaces the d1 chain before d0 is composed.
func (d *denoms) fill(gram0, gram1, cross []*mat.Dense, mode int, mu float64, sketch *mat.Dense) {
	first := true
	for k := range gram0 {
		if k == mode {
			continue
		}
		d.sum.Add(gram0[k], gram1[k])
		if first {
			d.d1.CopyFrom(d.sum)
			d.g0prod.CopyFrom(gram0[k])
			d.hprod.CopyFrom(cross[k])
			first = false
		} else {
			d.d1.Hadamard(d.d1, d.sum)
			d.g0prod.Hadamard(d.g0prod, gram0[k])
			d.hprod.Hadamard(d.hprod, cross[k])
		}
	}
	if first {
		d.d1.SetIdentity()
		d.g0prod.SetIdentity()
		d.hprod.SetIdentity()
	}
	if sketch != nil {
		d.d1.CopyFrom(sketch)
	}
	d.d0.Scale(-(1 - mu), d.g0prod)
	d.d0.Add(d.d0, d.d1)
}
