// Package dmsmg implements the experimental baseline of Section V: the
// medium-grained distributed static tensor decomposition of Smith &
// Karypis (DMS-MG), extended to the paper's framework with GTP or MTP
// partitioning (the paper's DMS-MG-GTP and DMS-MG-MTP variants).
//
// Being a static method, it decomposes every streaming snapshot from
// scratch: each step costs Θ(nnz(X)·R) per iteration, against
// DisMASTD's Θ(nnz(X \ X̃)·R) — the gap Fig. 5 measures. The
// distributed machinery (per-mode 1-D entry distribution, Gram
// all-reduce, factor-row exchange) is shared with internal/core via
// internal/dplan, so the two methods differ only in the algorithm, not
// the runtime.
package dmsmg

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"dismastd/internal/cluster"
	"dismastd/internal/dplan"
	"dismastd/internal/layout"
	"dismastd/internal/mat"
	"dismastd/internal/mttkrp"
	"dismastd/internal/par"
	"dismastd/internal/partition"
	"dismastd/internal/tensor"
	"dismastd/internal/xrand"
)

// Options configures a distributed static decomposition.
type Options struct {
	Rank     int     // R (required, > 0)
	MaxIters int     // ALS sweeps; default 10
	Tol      float64 // relative fit-change stop threshold; default 1e-6
	Seed     uint64  // factor initialisation seed; default 1

	Workers int              // cluster size M (required, > 0)
	Parts   int              // partitions per mode; default Workers
	Method  partition.Method // GTP or MTP

	// Threads sizes each worker's shared-memory pool (see internal/par).
	// 0 or 1 means sequential; results are bitwise identical at every
	// value.
	Threads int

	// Layout selects the kernel representation (see internal/layout):
	// Compiled (the zero value) or COO. Factors are bitwise identical
	// under either.
	Layout layout.Kind
}

func (o *Options) withDefaults() (Options, error) {
	opts := *o
	if opts.Rank <= 0 {
		return opts, fmt.Errorf("dmsmg: rank must be positive, got %d", opts.Rank)
	}
	if opts.Workers <= 0 {
		return opts, fmt.Errorf("dmsmg: workers must be positive, got %d", opts.Workers)
	}
	if opts.MaxIters <= 0 {
		opts.MaxIters = 10
	}
	if opts.Tol < 0 {
		return opts, fmt.Errorf("dmsmg: negative tolerance %v", opts.Tol)
	}
	if opts.Tol == 0 {
		opts.Tol = 1e-6
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Parts <= 0 {
		opts.Parts = opts.Workers
	}
	if opts.Threads < 0 {
		return opts, fmt.Errorf("dmsmg: negative thread count %d", opts.Threads)
	}
	if opts.Threads == 0 {
		opts.Threads = 1
	}
	return opts, nil
}

// Stats reports one distributed static decomposition.
type Stats struct {
	Iters      int
	Loss       float64 // final ‖X − [[A]]‖_F
	Fit        float64 // 1 − Loss/‖X‖_F
	LossTrace  []float64
	NNZ        int // entries processed per iteration — the whole tensor
	Imbalance  []float64
	Cluster    *cluster.RunStats
	SetupBytes int64
}

// ErrEmptyTensor reports decomposition of a tensor without entries.
var ErrEmptyTensor = errors.New("dmsmg: tensor has no non-zero entries")

// ErrNoResult is returned when a run completes without rank 0
// assembling factors (defensive).
var ErrNoResult = errors.New("dmsmg: run completed without a result")

// Decompose runs the distributed static CP-ALS over x from scratch and
// returns the factors.
func Decompose(x *tensor.Tensor, o Options) ([]*mat.Dense, *Stats, error) {
	opts, err := o.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	if x.NNZ() == 0 {
		return nil, nil, ErrEmptyTensor
	}
	plan := dplan.Build(x, opts.Workers, opts.Parts, opts.Method)
	src := xrand.New(opts.Seed)
	init := make([]*mat.Dense, x.Order())
	for m, d := range x.Dims {
		init[m] = mat.RandomUniform(d, opts.Rank, src)
	}
	job := &job{opts: opts, plan: plan, init: init, normSq: x.NormSq(), algo: make([]cluster.Metrics, opts.Workers)}

	cl := cluster.NewLocal(opts.Workers)
	runStats, err := cl.Run(job.runWorker)
	if err != nil {
		return nil, nil, err
	}
	if job.result == nil {
		return nil, nil, ErrNoResult
	}
	job.mu.Lock()
	for i := range runStats.Ranks {
		if i < len(job.algo) {
			runStats.Ranks[i].Metrics = job.algo[i]
		}
	}
	job.mu.Unlock()
	stats := &Stats{
		Iters:      job.iters,
		Loss:       job.finalLoss,
		Fit:        1 - job.finalLoss/math.Sqrt(job.normSq),
		LossTrace:  job.lossTrace,
		NNZ:        x.NNZ(),
		Imbalance:  plan.Imbalance(),
		Cluster:    runStats,
		SetupBytes: plan.SetupBytes(opts.Rank),
	}
	return job.result, stats, nil
}

type job struct {
	opts   Options
	plan   *dplan.Plan
	init   []*mat.Dense
	normSq float64

	mu        sync.Mutex
	result    []*mat.Dense
	iters     int
	finalLoss float64
	lossTrace []float64
	algo      []cluster.Metrics // per-rank traffic before result collection
}

func (j *job) runWorker(w *cluster.Worker) error {
	x := j.plan.Tensor
	n := x.Order()
	r := j.opts.Rank

	// Everything the sweep loop needs is allocated here, once; the
	// steady-state iteration allocates only inside the transport
	// collectives. The pool and its per-thread workspaces live for the
	// whole run; with Threads <= 1 the pool is nil and every kernel
	// runs inline.
	pool := par.New(j.opts.Threads)
	defer pool.Close()
	wss := mat.NewWorkspaceSet(pool.Threads())
	pk := mat.NewParKernels(pool, wss)
	pacc := mttkrp.NewParAccumulator(pool, wss, nil)
	kernels := make([]mttkrp.Kernel, n)
	for m := 0; m < n; m++ {
		kernels[m] = mttkrp.NewKernelOf(x, m, j.plan.EntryLists[w.Rank()][m], j.opts.Layout)
	}
	gt := &gramRowsTask{j: j, w: w}
	ws := mat.NewWorkspace()
	full := make([]*mat.Dense, n)
	for m := range full {
		full[m] = j.init[m].Clone()
	}
	grams := make([]*mat.Dense, n)
	for m := 0; m < n; m++ {
		grams[m] = mat.New(r, r)
	}
	gp := mat.New(r, r) // local Gram partial
	for m := 0; m < n; m++ {
		if err := j.reduceGram(w, pool, gt, m, full[m], grams[m], gp); err != nil {
			return err
		}
	}

	norm := math.Sqrt(j.normSq)
	mbuf := make([]*mat.Dense, n)
	for m := range mbuf {
		mbuf[m] = mat.New(x.Dims[m], r)
	}
	denom := mat.New(r, r)
	hall := mat.New(r, r)
	exch := dplan.NewExchanger(w, j.plan)
	var lastM *mat.Dense
	prevFit := math.Inf(-1)
	trace := make([]float64, 0, j.opts.MaxIters)
	iters := 0
	for sweep := 0; sweep < j.opts.MaxIters; sweep++ {
		for m := 0; m < n; m++ {
			M := mbuf[m]
			M.Zero()
			j.localMTTKRP(w, pacc, kernels[m], M, full)

			hadamardExceptInto(denom, grams, m)
			j.updateOwnedRows(w, pk, m, full[m], M, denom, ws)

			if err := j.reduceGram(w, pool, gt, m, full[m], grams[m], gp); err != nil {
				return err
			}
			if err := exch.Exchange(m, full[m], false); err != nil {
				return err
			}
			lastM = M
		}

		var localInner float64
		for _, s := range j.plan.OwnedSlices[n-1][w.Rank()] {
			mrow := lastM.Row(int(s))
			arow := full[n-1].Row(int(s))
			for c := range mrow {
				localInner += mrow[c] * arow[c]
			}
		}
		inner, err := w.ReduceScalarSum(localInner)
		if err != nil {
			return err
		}
		mat.HadamardAllInto(hall, grams...)
		modelSq := mat.SumAll(hall)
		lossSq := j.normSq - 2*inner + modelSq
		if lossSq < 0 {
			lossSq = 0
		}
		loss := math.Sqrt(lossSq)
		fit := 1 - loss/norm
		iters = sweep + 1
		trace = append(trace, loss)
		stop := math.Abs(fit-prevFit) < j.opts.Tol
		prevFit = fit
		if stop {
			break
		}
	}

	// Exclude the one-time result gather from per-iteration traffic
	// (covered by the Theorem 4 setup/teardown term).
	j.mu.Lock()
	j.algo[w.Rank()] = w.MetricsSnapshot()
	j.mu.Unlock()

	if err := j.gatherResult(w, full); err != nil {
		return err
	}
	if w.Rank() == 0 {
		j.mu.Lock()
		j.iters = iters
		j.lossTrace = trace
		j.finalLoss = trace[len(trace)-1]
		j.mu.Unlock()
	}
	return nil
}

// localMTTKRP accumulates this worker's entry subset into M via the
// row-grouped parallel kernel. The kernel groups the rank's entry list
// by output row, so chunks never share a destination row and the
// result is bitwise identical to the flat scatter at every thread
// count.
func (j *job) localMTTKRP(w *cluster.Worker, pacc *mttkrp.ParAccumulator, k mttkrp.Kernel, M *mat.Dense, full []*mat.Dense) {
	x := j.plan.Tensor
	pacc.Accumulate(M, k, full, "")
	w.AddWork(float64(k.NNZ()) * float64(x.Order()) * float64(M.Cols))
}

func (j *job) updateOwnedRows(w *cluster.Worker, pk *mat.ParKernels, mode int, factor, M, denom *mat.Dense, ws *mat.Workspace) {
	r := factor.Cols
	owned := j.plan.OwnedSlices[mode][w.Rank()]
	if len(owned) == 0 {
		return
	}
	mark := ws.Mark()
	num := ws.Take(len(owned), r)
	for i, s := range owned {
		copy(num.Row(i), M.Row(int(s)))
	}
	pk.SolveRightRidgeInto(num, num, denom)
	for i, s := range owned {
		copy(factor.Row(int(s)), num.Row(i))
	}
	ws.Release(mark)
	// One R² solve per row plus the replicated R³ factorisation.
	w.AddWork(float64(len(owned))*float64(r)*float64(r) + float64(r*r*r))
}

// reduceGram accumulates this worker's Gram partial over its owned rows
// into the scratch matrix g, all-reduces it, and refreshes gram in
// place with the cluster-wide sum. The accumulation is partitioned over
// the partial's output rows; every chunk scans the owned rows in the
// same order, so each output entry sees the sequential accumulation
// order and the partial is bitwise thread-count independent.
func (j *job) reduceGram(w *cluster.Worker, pool *par.Pool, gt *gramRowsTask, mode int, factor, gram, g *mat.Dense) error {
	r := factor.Cols
	gt.mode, gt.factor, gt.g = mode, factor, g
	pool.For(r, gt)
	gt.factor, gt.g = nil, nil
	owned := j.plan.OwnedSlices[mode][w.Rank()]
	w.AddWork(float64(len(owned)) * float64(r) * float64(r))
	copy(gram.Data, g.Data)
	return w.AllReduceSumInPlace(gram.Data)
}

// gramRowsTask is the par.Body for reduceGram: rows [lo, hi) of the
// local Gram partial, zeroed then accumulated over the rank's owned
// factor rows in plan order.
type gramRowsTask struct {
	j      *job
	w      *cluster.Worker
	mode   int
	factor *mat.Dense
	g      *mat.Dense
}

func (t *gramRowsTask) RunChunk(lo, hi, tid int) {
	owned := t.j.plan.OwnedSlices[t.mode][t.w.Rank()]
	for i := lo; i < hi; i++ {
		row := t.g.Row(i)
		for c := range row {
			row[c] = 0
		}
	}
	for _, s := range owned {
		row := t.factor.Row(int(s))
		for i := lo; i < hi; i++ {
			av := row[i]
			if av == 0 {
				continue
			}
			dst := t.g.Row(i)
			for c, bv := range row {
				dst[c] += av * bv
			}
		}
	}
}

func (j *job) gatherResult(w *cluster.Worker, full []*mat.Dense) error {
	n := len(full)
	r := j.opts.Rank
	var result []*mat.Dense
	if w.Rank() == 0 {
		result = make([]*mat.Dense, n)
	}
	maxOwned := 0
	for m := 0; m < n; m++ {
		if len(j.plan.OwnedSlices[m][w.Rank()]) > maxOwned {
			maxOwned = len(j.plan.OwnedSlices[m][w.Rank()])
		}
	}
	buf := make([]float64, 0, maxOwned*r)
	for m := 0; m < n; m++ {
		owned := j.plan.OwnedSlices[m][w.Rank()]
		buf = buf[:0]
		for _, s := range owned {
			buf = append(buf, full[m].Row(int(s))...)
		}
		parts, err := w.GatherBytes(0, cluster.EncodeFloat64s(buf))
		if err != nil {
			return err
		}
		if w.Rank() != 0 {
			continue
		}
		out := mat.New(full[m].Rows, r)
		for rank, payload := range parts {
			vals, err := cluster.DecodeFloat64s(payload)
			if err != nil {
				return err
			}
			rows := j.plan.OwnedSlices[m][rank]
			if len(vals) != len(rows)*r {
				return fmt.Errorf("dmsmg: gather mode %d rank %d: %d values for %d rows", m, rank, len(vals), len(rows))
			}
			for i, s := range rows {
				copy(out.Row(int(s)), vals[i*r:(i+1)*r])
			}
		}
		result[m] = out
	}
	if w.Rank() == 0 {
		j.mu.Lock()
		j.result = result
		j.mu.Unlock()
	}
	return nil
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
