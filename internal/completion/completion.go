// Package completion implements CP tensor *completion*: fitting the
// Kruskal model to the observed entries only, treating everything else
// as missing rather than zero. This is the setting of the paper's
// motivating recommendation example (Section I: predicted ratings are
// "missing entries of data tensors that could be complemented by the
// latent representations") and of MAST, the centralized multi-aspect
// streaming predecessor DisMASTD builds on.
//
// Plain CP-ALS (dtd.Init) minimises the error over the *full* dense
// tensor, so unobserved cells act as hard zeros and drag predictions
// toward zero. Completion minimises
//
//	Σ_{c ∈ Ω} (X[c] − Y[c])² + λ Σ_k ‖A_k‖_F²
//
// over the observation set Ω, which requires a separate R×R normal
// system per factor row (the rows no longer share a denominator):
//
//	(Σ_{e ∈ Ω, c_n=i} h_e h_eᵀ + λI) · A_n[i,:]ᵀ = Σ_e X[e]·h_e,
//	h_e = ∗_{k≠n} A_k[c_k,:]
//
// solved with the same Cholesky machinery as the rest of the library.
// StreamStep extends the solver to multi-aspect streaming snapshots by
// warm-starting from the previous factors.
package completion

import (
	"errors"
	"fmt"
	"math"

	"dismastd/internal/layout"
	"dismastd/internal/mat"
	"dismastd/internal/mttkrp"
	"dismastd/internal/par"
	"dismastd/internal/tensor"
	"dismastd/internal/xrand"
)

// Options controls a completion run.
type Options struct {
	Rank     int     // R (required, > 0)
	MaxIters int     // ALS sweeps; default 30
	Tol      float64 // stop when relative RMSE change falls below Tol; default 1e-6
	Lambda   float64 // ridge regulariser λ; default 1e-3
	Seed     uint64  // initialisation seed; default 1

	// Threads sizes the shared-memory pool the sweep runs on (see
	// internal/par). 0 or 1 means sequential. Each factor row's normal
	// system is built and solved by exactly one chunk, so results are
	// bitwise identical at every value.
	Threads int
}

func (o *Options) withDefaults() (Options, error) {
	opts := *o
	if opts.Rank <= 0 {
		return opts, fmt.Errorf("completion: rank must be positive, got %d", opts.Rank)
	}
	if opts.MaxIters <= 0 {
		opts.MaxIters = 30
	}
	if opts.Tol < 0 {
		return opts, fmt.Errorf("completion: negative tolerance %v", opts.Tol)
	}
	if opts.Tol == 0 {
		opts.Tol = 1e-6
	}
	if opts.Lambda < 0 {
		return opts, fmt.Errorf("completion: negative lambda %v", opts.Lambda)
	}
	if opts.Lambda == 0 {
		opts.Lambda = 1e-3
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Threads < 0 {
		return opts, fmt.Errorf("completion: negative thread count %d", opts.Threads)
	}
	if opts.Threads == 0 {
		opts.Threads = 1
	}
	return opts, nil
}

// Result reports a completion run.
type Result struct {
	Factors   []*mat.Dense
	Iters     int
	RMSE      float64 // root mean squared error over the observed entries
	RMSETrace []float64
}

// ErrNoObservations reports completion of a tensor without entries.
var ErrNoObservations = errors.New("completion: tensor has no observed entries")

// Decompose fits the model to x's observed entries from a random start.
func Decompose(x *tensor.Tensor, o Options) (*Result, error) {
	opts, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	src := xrand.New(opts.Seed)
	factors := make([]*mat.Dense, x.Order())
	for m, d := range x.Dims {
		factors[m] = mat.RandomUniform(d, opts.Rank, src)
	}
	return DecomposeFrom(x, factors, opts)
}

// DecomposeFrom fits the model starting from the given factors (updated
// in place). Used for warm starts and by StreamStep.
func DecomposeFrom(x *tensor.Tensor, factors []*mat.Dense, o Options) (*Result, error) {
	opts, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	if x.NNZ() == 0 {
		return nil, ErrNoObservations
	}
	if len(factors) != x.Order() {
		return nil, fmt.Errorf("completion: %d factors for order-%d tensor", len(factors), x.Order())
	}
	for m, f := range factors {
		if f.Rows != x.Dims[m] || f.Cols != opts.Rank {
			return nil, fmt.Errorf("completion: factor %d is %dx%d, want %dx%d", m, f.Rows, f.Cols, x.Dims[m], opts.Rank)
		}
	}

	n := x.Order()
	r := opts.Rank
	kernels := make([]mttkrp.Kernel, n)
	for m := 0; m < n; m++ {
		kernels[m] = mttkrp.NewKernel(x, m, layout.Compiled)
	}

	// All sweep scratch lives in per-thread workspaces: each chunk of
	// row groups checks out its own normal system, solution, and
	// Khatri-Rao row, so steady-state iterations allocate nothing and
	// chunks never share a buffer. Groups are distributed nnz-balanced
	// across the pool; a row's system is built and solved entirely by
	// one chunk, so the fit is bitwise thread-count independent.
	pool := par.New(opts.Threads)
	defer pool.Close()
	wss := mat.NewWorkspaceSet(pool.Threads())
	task := &modeRowsTask{factors: factors, lambda: opts.Lambda, rank: r, wss: wss}
	res := &Result{Factors: factors, RMSETrace: make([]float64, 0, opts.MaxIters)}
	prev := math.Inf(1)
	tmp := make([]float64, r)
	for it := 0; it < opts.MaxIters; it++ {
		for m := 0; m < n; m++ {
			task.kernel, task.mode = kernels[m], m
			pool.ForChunks(kernels[m].ChunkStarts(pool.Threads()), task)
		}
		res.Iters = it + 1
		res.RMSE = rmseScratch(x, factors, tmp)
		res.RMSETrace = append(res.RMSETrace, res.RMSE)
		if relChange(prev, res.RMSE) < opts.Tol {
			break
		}
		prev = res.RMSE
	}
	return res, nil
}

// modeRowsTask is the par.Body for one mode's sweep: row groups
// [g0, g1) of the kernel, each solved with scratch checked out from
// the running thread's workspace.
type modeRowsTask struct {
	kernel  mttkrp.Kernel
	factors []*mat.Dense
	mode    int
	lambda  float64
	rank    int
	wss     *mat.WorkspaceSet
}

func (t *modeRowsTask) RunChunk(g0, g1, tid int) {
	ws := t.wss.At(tid)
	mark := ws.Mark()
	h := ws.TakeVec(t.rank)
	sys := ws.Take(t.rank, t.rank)
	rhs := ws.Take(t.rank, 1)
	sol := ws.Take(t.rank, 1)
	solveGroups(t.kernel, t.factors, t.mode, t.lambda, g0, g1, h, sys, rhs, sol, ws)
	ws.Release(mark)
}

// solveGroups solves the per-row regularised normal equations for the
// kernel's row groups [g0, g1), reading observations through the
// Kernel interface so both representations (and both the centralized
// and distributed drivers) share one solver. h, sys, rhs, sol are
// scratch buffers sized R, RxR, Rx1, Rx1; ws supplies the solver
// scratch. Each group's observations are visited in position order —
// the stable order both kernels preserve — so the fit is bitwise
// identical across representations and thread counts.
func solveGroups(kern mttkrp.Kernel, factors []*mat.Dense, mode int, lambda float64, g0, g1 int, h []float64, sys, rhs, sol *mat.Dense, ws *mat.Workspace) {
	n := len(factors)
	r := len(h)
	for g := g0; g < g1; g++ {
		sys.Zero()
		rhs.Zero()
		p0, p1 := kern.GroupRange(g)
		for p := p0; p < p1; p++ {
			for c := range h {
				h[c] = 1
			}
			for k := 0; k < n; k++ {
				if k == mode {
					continue
				}
				row := factors[k].Row(int(kern.EntryCoord(p, k)))
				for c := range h {
					h[c] *= row[c]
				}
			}
			v := kern.EntryVal(p)
			for i, hi := range h {
				if hi == 0 {
					continue
				}
				srow := sys.Row(i)
				for j, hj := range h {
					srow[j] += hi * hj
				}
				rhs.Data[i] += v * hi
			}
		}
		for i := 0; i < r; i++ {
			sys.Set(i, i, sys.At(i, i)+lambda)
		}
		if err := mat.SolveSPDInto(sol, sys, rhs, ws); err != nil {
			// Extremely ill-conditioned row (e.g. duplicate colinear
			// observations): fall back to a stronger ridge.
			for i := 0; i < r; i++ {
				sys.Set(i, i, sys.At(i, i)+1e-6+lambda*10)
			}
			mark := ws.Mark()
			rt := ws.Take(1, r)
			mat.TransposeInto(rt, rhs)
			mat.SolveRightRidgeInto(rt, rt, sys, ws)
			mat.TransposeInto(sol, rt)
			ws.Release(mark)
		}
		copy(factors[mode].Row(int(kern.GroupRow(g))), sol.Data)
	}
	// Rows with no observations have no group and keep their current
	// values, pinned only by the regulariser's pull in subsequent
	// predictions.
}

// RMSE returns the root mean squared prediction error over x's
// observed entries.
func RMSE(x *tensor.Tensor, factors []*mat.Dense) float64 {
	return rmseScratch(x, factors, make([]float64, factors[0].Cols))
}

func rmseScratch(x *tensor.Tensor, factors []*mat.Dense, tmp []float64) float64 {
	if x.NNZ() == 0 {
		return 0
	}
	n := x.Order()
	var sum float64
	for e := 0; e < x.NNZ(); e++ {
		base := e * n
		for c := range tmp {
			tmp[c] = 1
		}
		for k := 0; k < n; k++ {
			row := factors[k].Row(int(x.Coords[base+k]))
			for c := range tmp {
				tmp[c] *= row[c]
			}
		}
		pred := 0.0
		for _, v := range tmp {
			pred += v
		}
		d := x.Vals[e] - pred
		sum += d * d
	}
	return math.Sqrt(sum / float64(x.NNZ()))
}

// StreamStep advances a completion model along a multi-aspect stream:
// the previous factors are extended with seeded random rows for the
// growth ranges and refined over the new snapshot's observations by
// warm-started weighted ALS. prevFactors is not modified.
func StreamStep(prevFactors []*mat.Dense, snapshot *tensor.Tensor, o Options) (*Result, error) {
	opts, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(prevFactors) != snapshot.Order() {
		return nil, fmt.Errorf("completion: %d previous factors for order-%d snapshot", len(prevFactors), snapshot.Order())
	}
	src := xrand.New(opts.Seed)
	factors := make([]*mat.Dense, snapshot.Order())
	for m, f := range prevFactors {
		if f.Cols != opts.Rank {
			return nil, fmt.Errorf("completion: previous factor %d has rank %d, want %d", m, f.Cols, opts.Rank)
		}
		grow := snapshot.Dims[m] - f.Rows
		if grow < 0 {
			return nil, fmt.Errorf("completion: mode %d shrank %d -> %d", m, f.Rows, snapshot.Dims[m])
		}
		factors[m] = mat.StackRows(f, mat.RandomUniform(grow, opts.Rank, src))
	}
	return DecomposeFrom(snapshot, factors, opts)
}

func relChange(prev, cur float64) float64 {
	if math.IsInf(prev, 1) {
		return math.Inf(1)
	}
	return math.Abs(prev-cur) / math.Max(prev, 1e-12)
}
