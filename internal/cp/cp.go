// Package cp implements static CP decomposition by alternating least
// squares (ALS) for sparse tensors of arbitrary order. It is the
// centralized reference the DMS-MG baseline distributes, and it seeds
// the first snapshot of a streaming sequence before DTD/DisMASTD take
// over.
//
// One ALS sweep updates each factor in turn:
//
//	A_n ← MTTKRP_n(X, A) · (∗_{k≠n} A_kᵀA_k)⁻¹
//
// with the loss evaluated from reused intermediates:
//
//	‖X − [[A]]‖² = ‖X‖² − 2·Σ_i M_N[i,:]·A_N[i,:] + Σ_{r,s} (∗_k A_kᵀA_k)[r,s]
package cp

import (
	"errors"
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

// Options controls a CP-ALS run.
type Options struct {
	Rank     int     // R, the number of components (required, > 0)
	MaxIters int     // maximum ALS sweeps; default 50
	Tol      float64 // stop when the relative fit change falls below Tol; default 1e-6
	Seed     uint64  // factor initialisation seed; default 1

	// Threads sizes the shared-memory pool the sweep kernels run on.
	// 0 or 1 means sequential. Results are bitwise identical at every
	// value (see internal/par).
	Threads int

	// Layout selects the kernel representation the sweeps run on:
	// layout.Compiled (the zero value) compiles the tensor once per run
	// into fiber-grouped layouts, layout.COO walks the coordinate
	// arrays. Factors are bitwise identical under either.
	Layout layout.Kind

	// Solver selects the per-mode least-squares strategy: sample.Exact
	// (default) runs the full MTTKRP and the exact Gram Hadamard
	// product; sample.Sampled replaces both with the leverage-score
	// sketch of internal/sample — sublinear-in-nnz rounds at a
	// configurable fit tolerance, bitwise reproducible per seed at
	// every thread count.
	Solver sample.Kind
	// Samples is the sketch size S per mode under the sampled solver;
	// 0 selects sample.DefaultSamples.
	Samples int

	// Obs receives the run's phase spans (modeN/mttkrp, modeN/solve,
	// modeN/gram, loss, plan/sample-index under the sampled solver, and
	// per-chunk modeN/mttkrp.chunk spans when Threads > 1). May be nil.
	Obs *obs.Obs
}

func (o *Options) withDefaults() (Options, error) {
	opts := *o
	if opts.Rank <= 0 {
		return opts, fmt.Errorf("cp: rank must be positive, got %d", opts.Rank)
	}
	if opts.MaxIters <= 0 {
		opts.MaxIters = 50
	}
	if opts.Tol < 0 {
		return opts, fmt.Errorf("cp: negative tolerance %v", opts.Tol)
	}
	if opts.Tol == 0 {
		opts.Tol = 1e-6
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Threads < 0 {
		return opts, fmt.Errorf("cp: negative thread count %d", opts.Threads)
	}
	if opts.Threads == 0 {
		opts.Threads = 1
	}
	if opts.Solver != sample.Exact && opts.Solver != sample.Sampled {
		return opts, fmt.Errorf("cp: unknown solver %v", opts.Solver)
	}
	if opts.Samples < 0 {
		return opts, fmt.Errorf("cp: negative sample count %d", opts.Samples)
	}
	if opts.Samples == 0 {
		opts.Samples = sample.DefaultSamples
	}
	return opts, nil
}

// Result holds the factor matrices and convergence diagnostics of a
// CP-ALS run.
type Result struct {
	Factors   []*mat.Dense    // one I_n x R factor per mode
	Iters     int             // ALS sweeps performed
	Loss      float64         // final ‖X − [[A]]‖_F
	Fit       float64         // 1 − Loss/‖X‖_F
	LossTrace []float64       // loss after each sweep
	Phases    []obs.PhaseStat // per-phase wall time, when Options.Obs is set
}

// ErrEmptyTensor reports decomposition of a tensor without entries.
var ErrEmptyTensor = errors.New("cp: tensor has no non-zero entries")

// Decompose runs CP-ALS on x and returns the factors.
func Decompose(x *tensor.Tensor, o Options) (*Result, error) {
	opts, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	if x.NNZ() == 0 {
		return nil, ErrEmptyTensor
	}
	src := xrand.New(opts.Seed)
	factors := make([]*mat.Dense, x.Order())
	for m, d := range x.Dims {
		factors[m] = mat.RandomUniform(d, opts.Rank, src)
	}
	return DecomposeFrom(x, factors, opts)
}

// DecomposeFrom runs CP-ALS starting from the given factors, which are
// updated in place and returned in the result. It is used by warm-start
// baselines and by tests that need controlled initialisation.
func DecomposeFrom(x *tensor.Tensor, factors []*mat.Dense, o Options) (*Result, error) {
	opts, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	if x.NNZ() == 0 {
		return nil, ErrEmptyTensor
	}
	if len(factors) != x.Order() {
		return nil, fmt.Errorf("cp: %d factors for order-%d tensor", len(factors), x.Order())
	}
	for m, f := range factors {
		if f.Rows != x.Dims[m] || f.Cols != opts.Rank {
			return nil, fmt.Errorf("cp: factor %d is %dx%d, want %dx%d", m, f.Rows, f.Cols, x.Dims[m], opts.Rank)
		}
	}

	n := x.Order()
	normSq := x.NormSq()
	norm := math.Sqrt(normSq)

	// Everything the sweep loop needs is allocated here, once: factor
	// updates, Gram refreshes and the loss all run in place, so the
	// steady-state iteration performs zero heap allocations. The pool
	// and its per-thread workspaces live for the whole run; with
	// Threads <= 1 the pool is nil and every kernel runs inline.
	pool := par.New(opts.Threads)
	defer pool.Close()
	wss := mat.NewWorkspaceSet(pool.Threads())
	pk := mat.NewParKernels(pool, wss)
	pacc := mttkrp.NewParAccumulator(pool, wss, opts.Obs)
	grams := make([]*mat.Dense, n)
	for m := range factors {
		grams[m] = mat.Gram(factors[m])
	}
	kernels := make([]mttkrp.Kernel, n)
	mbuf := make([]*mat.Dense, n)
	for m := 0; m < n; m++ {
		kernels[m] = mttkrp.NewKernel(x, m, opts.Layout)
		mbuf[m] = mat.New(x.Dims[m], opts.Rank)
	}
	denom := mat.New(opts.Rank, opts.Rank)
	hall := mat.New(opts.Rank, opts.Rank)

	// Under the sampled solver, the per-mode system (MTTKRP + Gram
	// Hadamard product) is replaced by the leverage-score sketch: build
	// the per-mode fiber indices once, then refresh each mode's draw
	// distribution whenever its Gram refreshes.
	var smp *sample.Sampler
	if opts.Solver == sample.Sampled {
		sp := opts.Obs.Span("plan/sample-index")
		smp, err = sample.New(x, nil, opts.Rank, opts.Samples, opts.Seed, 0)
		sp.End()
		if err != nil {
			return nil, err
		}
		for m := range factors {
			smp.Refresh(m, factors[m], grams[m])
		}
	}

	// Per-mode span names, formatted once so the sweep loop never builds
	// strings; every handle is nil-safe when opts.Obs is unset.
	names := make([]struct{ mttkrp, chunk, solve, gram string }, n)
	for m := 0; m < n; m++ {
		names[m].mttkrp = fmt.Sprintf("mode%d/mttkrp", m)
		names[m].chunk = fmt.Sprintf("mode%d/mttkrp.chunk", m)
		names[m].solve = fmt.Sprintf("mode%d/solve", m)
		names[m].gram = fmt.Sprintf("mode%d/gram", m)
	}
	cRows := opts.Obs.Counter("mttkrp.rows")

	res := &Result{Factors: factors, LossTrace: make([]float64, 0, opts.MaxIters)}
	prevFit := math.Inf(-1)
	for it := 0; it < opts.MaxIters; it++ {
		opts.Obs.SetIter(it)
		var lastM *mat.Dense
		for m := 0; m < n; m++ {
			sp := opts.Obs.Span(names[m].mttkrp)
			M := mbuf[m]
			if smp != nil {
				// Sketched system: M̂ into M, Ĝ into denom.
				matched := smp.Sample(m, factors, pacc, pk, M, denom, names[m].chunk)
				cRows.Add(int64(matched))
			} else {
				M.Zero()
				pacc.Accumulate(M, kernels[m], factors, names[m].chunk)
				cRows.Add(int64(x.NNZ()))
			}
			sp.End()
			sp = opts.Obs.Span(names[m].solve)
			if smp == nil {
				hadamardExceptInto(denom, grams, m)
			}
			pk.SolveRightRidgeInto(factors[m], M, denom)
			sp.End()
			sp = opts.Obs.Span(names[m].gram)
			pk.GramInto(grams[m], factors[m])
			if smp != nil {
				smp.Refresh(m, factors[m], grams[m])
			}
			sp.End()
			lastM = M
		}
		res.Factors = factors
		res.Iters = it + 1

		// Under the sampled solver lastM is the sketched MTTKRP, so the
		// inner-product term — and with it the loss trace and the Tol
		// stop — is an unbiased estimate rather than exact; callers
		// needing the true final loss evaluate LossAgainst once.
		lsp := opts.Obs.Span("loss")
		inner := mat.Dot(lastM, factors[n-1])
		mat.HadamardAllInto(hall, grams...)
		modelSq := mat.SumAll(hall)
		lossSq := normSq - 2*inner + modelSq
		if lossSq < 0 {
			lossSq = 0 // guard tiny negative round-off
		}
		lsp.End()
		res.Loss = math.Sqrt(lossSq)
		res.Fit = 1 - res.Loss/norm
		res.LossTrace = append(res.LossTrace, res.Loss)
		if math.Abs(res.Fit-prevFit) < opts.Tol {
			break
		}
		prevFit = res.Fit
	}
	if opts.Obs != nil && opts.Obs.Trace != nil {
		res.Phases = obs.AggregatePhases(opts.Obs.Trace.Phases())
	}
	return res, nil
}

// hadamardExceptInto stores ∗_{k≠mode} grams[k] into dst, or the
// identity when the tensor is first-order (no other modes). dst must
// not be one of the grams.
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

// Reconstruct evaluates the Kruskal model at one coordinate:
// Σ_r ∏_k A_k[idx_k, r]. It is the prediction primitive the
// recommendation example uses for missing entries.
func Reconstruct(factors []*mat.Dense, idx []int) float64 {
	if len(idx) != len(factors) {
		panic(fmt.Sprintf("cp: Reconstruct with %d indices for %d factors", len(idx), len(factors)))
	}
	r := factors[0].Cols
	total := 0.0
	for c := 0; c < r; c++ {
		p := 1.0
		for k, f := range factors {
			p *= f.At(idx[k], c)
		}
		total += p
	}
	return total
}

// LossAgainst returns ‖X − [[factors]]‖_F computed from scratch — the
// slow definitional form used to validate the reuse-based loss.
func LossAgainst(x *tensor.Tensor, factors []*mat.Dense) float64 {
	grams := make([]*mat.Dense, len(factors))
	for m, f := range factors {
		grams[m] = mat.Gram(f)
	}
	modelSq := mat.SumAll(mat.HadamardAll(grams...))
	inner := mttkrp.InnerProduct(x, factors)
	lossSq := x.NormSq() - 2*inner + modelSq
	if lossSq < 0 {
		lossSq = 0
	}
	return math.Sqrt(lossSq)
}
