package completion

import (
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

// Distributed completion — the only completion driver; a one-rank
// cluster is the centralized run. The weighted ALS runs on the cluster
// runtime, with the observations distributed per mode by GTP/MTP
// exactly like DisMASTD distributes the complement. Completion
// parallelises even more cleanly than decomposition — each factor row's
// R×R normal system is built solely from that row's own observations,
// which live with the row's owner by construction — so the only
// communication is the post-update factor-row exchange and the RMSE
// reduction; there is no Gram all-reduce at all.

// DistributedOptions extends Options with the cluster shape.
type DistributedOptions struct {
	Options
	Workers int              // cluster size (required, > 0)
	Parts   int              // partitions per mode; default Workers
	Method  partition.Method // GTP or MTP
}

// DistributedResult pairs the fit with the runtime's measurements.
type DistributedResult struct {
	Result
	Cluster *cluster.RunStats
}

// DecomposeDistributed fits x's observed entries on an in-process
// cluster. The result is the same bit for bit at every Workers (given
// the same options): no cross-row reductions enter the factor math, so
// distribution does not even reorder floating-point sums.
func DecomposeDistributed(x *tensor.Tensor, o DistributedOptions) (*DistributedResult, error) {
	opts, err := o.Options.withDefaults()
	if err != nil {
		return nil, err
	}
	src := xrand.New(opts.Seed)
	init := make([]*mat.Dense, x.Order())
	for m, d := range x.Dims {
		init[m] = mat.RandomUniform(d, opts.Rank, src)
	}
	return o.fit(x, init, opts)
}

// fit checks the cluster shape and fits x's observed entries from
// factors on it; opts are o.Options with defaults applied.
func (o DistributedOptions) fit(x *tensor.Tensor, factors []*mat.Dense, opts Options) (*DistributedResult, error) {
	if o.Workers <= 0 {
		return nil, fmt.Errorf("completion: workers must be positive, got %d", o.Workers)
	}
	if x.NNZ() == 0 {
		return nil, ErrNoObservations
	}
	res, stats, err := decompose(x, factors, opts, o.Workers, o.Parts, o.Method)
	if err != nil {
		return nil, err
	}
	return &DistributedResult{Result: *res, Cluster: stats}, nil
}

// decompose is the one completion driver: the SPMD sweep loop on an
// in-process cluster of the given shape, starting from factors. Rank 0
// sweeps factors itself, so they end as the result's, updated in place;
// every other rank sweeps a private copy.
func decompose(x *tensor.Tensor, factors []*mat.Dense, opts Options, workers, parts int, method partition.Method) (*Result, *cluster.RunStats, error) {
	replicas := make([][]*mat.Dense, workers)
	replicas[0] = factors
	for r := 1; r < workers; r++ {
		replicas[r] = make([]*mat.Dense, len(factors))
		for m, f := range factors {
			replicas[r][m] = f.Clone()
		}
	}
	job := &distJob{opts: opts, plan: dplan.Build(x, workers, parts, method), replicas: replicas}
	stats, err := cluster.NewLocal(workers).Run(job.runWorker)
	if err != nil {
		return nil, nil, err
	}
	if job.result == nil {
		return nil, nil, fmt.Errorf("completion: run completed without a result")
	}
	return job.result, stats, nil
}

type distJob struct {
	opts     Options
	plan     *dplan.Plan
	replicas [][]*mat.Dense // per rank: the factors it sweeps

	mu     sync.Mutex
	result *Result
}

func (j *distJob) runWorker(w *cluster.Worker) error {
	x := j.plan.Tensor
	n := x.Order()
	r := j.opts.Rank
	me := w.Rank()

	full := j.replicas[me]

	// Group this worker's per-mode entries by row once; the pattern is
	// fixed across sweeps, so the kernel is compiled once and amortised
	// over them. Entry order inside a row stays ascending (the mode
	// sort is stable over the ascending entry list), so the
	// accumulation matches the centralized kernel exactly. Every entry
	// in a rank's mode-m list lies in a mode-m slice the rank owns, so
	// the kernel's groups are exactly the rank's observed owned rows.
	kernels := make([]mttkrp.Kernel, n)
	for m := 0; m < n; m++ {
		kernels[m] = mttkrp.NewKernelOf(x, m, j.plan.EntryLists[me][m], layout.Compiled)
	}

	// Per-worker sweep scratch, allocated once. Each worker runs its
	// owned-row solves on its own pool; rows are fully independent (one
	// normal system each), so the intra-worker parallelism neither
	// reorders any floating-point sum nor shares a buffer across chunks.
	pool := par.New(j.opts.Threads)
	defer pool.Close()
	wss := mat.NewWorkspaceSet(pool.Threads())
	rt := &distRowsTask{j: j, full: full, wss: wss, rank: r}
	// Per-mode work is fixed across sweeps; tally it once so the
	// parallel chunks stay free of shared counters.
	workPerMode := make([]float64, n)
	for m := 0; m < n; m++ {
		for g := 0; g < kernels[m].NumRows(); g++ {
			p0, p1 := kernels[m].GroupRange(g)
			workPerMode[m] += float64(p1-p0)*float64(n+r)*float64(r) + float64(r*r*r)
		}
	}
	exch := dplan.NewExchanger(w, j.plan)
	tmp := make([]float64, r)
	prev := math.Inf(1)
	trace := make([]float64, 0, j.opts.MaxIters)
	iters := 0
	for sweep := 0; sweep < j.opts.MaxIters; sweep++ {
		for m := 0; m < n; m++ {
			rt.mode, rt.kernel = m, kernels[m]
			pool.ForChunks(kernels[m].ChunkStarts(pool.Threads()), rt)
			w.AddWork(workPerMode[m])
			if err := exch.Exchange(m, full[m], false); err != nil {
				return err
			}
		}
		// RMSE over all observations: each worker owns the mode-0
		// entries of its mode-0 slices, a disjoint cover.
		var local float64
		for _, e := range j.plan.EntryLists[me][0] {
			base := int(e) * n
			for c := range tmp {
				tmp[c] = 1
			}
			for k := 0; k < n; k++ {
				rowv := full[k].Row(int(x.Coords[base+k]))
				for c := range tmp {
					tmp[c] *= rowv[c]
				}
			}
			pred := 0.0
			for _, v := range tmp {
				pred += v
			}
			d := x.Vals[e] - pred
			local += d * d
		}
		total, err := w.ReduceScalarSum(local)
		if err != nil {
			return err
		}
		rmse := math.Sqrt(total / float64(x.NNZ()))
		iters = sweep + 1
		trace = append(trace, rmse)
		stop := relChange(prev, rmse) < j.opts.Tol
		prev = rmse
		if stop {
			break
		}
	}

	result, err := exch.Gather(full)
	if err != nil {
		return err
	}
	if me == 0 {
		j.mu.Lock()
		j.result = &Result{Factors: result, Iters: iters, RMSE: trace[len(trace)-1], RMSETrace: trace}
		j.mu.Unlock()
	}
	return nil
}

// distRowsTask is the par.Body for a worker's owned-row sweep of one
// mode: kernel row groups [g0, g1), each solved with scratch from the
// running thread's workspace via the shared solveGroups solver.
type distRowsTask struct {
	j      *distJob
	full   []*mat.Dense
	kernel mttkrp.Kernel
	wss    *mat.WorkspaceSet
	rank   int
	mode   int
}

func (t *distRowsTask) RunChunk(g0, g1, tid int) {
	ws := t.wss.At(tid)
	mark := ws.Mark()
	h := ws.TakeVec(t.rank)
	sys := ws.Take(t.rank, t.rank)
	rhs := ws.Take(t.rank, 1)
	sol := ws.Take(t.rank, 1)
	solveGroups(t.kernel, t.full, t.mode, t.j.opts.Lambda, g0, g1, h, sys, rhs, sol, ws)
	ws.Release(mark)
}
