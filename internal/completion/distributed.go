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

// Distributed completion: the same weighted ALS run on the cluster
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
// cluster. The result matches the centralized Decompose bit for bit
// (given the same options): no cross-row reductions enter the factor
// math, so distribution does not even reorder floating-point sums.
func DecomposeDistributed(x *tensor.Tensor, o DistributedOptions) (*DistributedResult, error) {
	opts, err := o.Options.withDefaults()
	if err != nil {
		return nil, err
	}
	if o.Workers <= 0 {
		return nil, fmt.Errorf("completion: workers must be positive, got %d", o.Workers)
	}
	if x.NNZ() == 0 {
		return nil, ErrNoObservations
	}
	src := xrand.New(opts.Seed)
	init := make([]*mat.Dense, x.Order())
	for m, d := range x.Dims {
		init[m] = mat.RandomUniform(d, opts.Rank, src)
	}
	plan := dplan.Build(x, o.Workers, o.Parts, o.Method)

	job := &distJob{opts: opts, plan: plan, init: init}
	cl := cluster.NewLocal(o.Workers)
	stats, err := cl.Run(job.runWorker)
	if err != nil {
		return nil, err
	}
	if job.result == nil {
		return nil, fmt.Errorf("completion: run completed without a result")
	}
	return &DistributedResult{
		Result:  Result{Factors: job.result, Iters: job.iters, RMSE: job.rmse, RMSETrace: job.trace},
		Cluster: stats,
	}, nil
}

type distJob struct {
	opts Options
	plan *dplan.Plan
	init []*mat.Dense

	mu     sync.Mutex
	result []*mat.Dense
	iters  int
	rmse   float64
	trace  []float64
}

func (j *distJob) runWorker(w *cluster.Worker) error {
	x := j.plan.Tensor
	n := x.Order()
	r := j.opts.Rank
	me := w.Rank()

	full := make([]*mat.Dense, n)
	for m := range full {
		full[m] = j.init[m].Clone()
	}

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

	result, err := dplan.GatherOwnedRows(w, j.plan.OwnedSlices, full)
	if err != nil {
		return err
	}
	if me == 0 {
		j.mu.Lock()
		j.result = result
		j.iters = iters
		j.trace = trace
		j.rmse = trace[len(trace)-1]
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
