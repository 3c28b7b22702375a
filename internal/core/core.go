// Package core implements DisMASTD itself — the distributed
// multi-aspect streaming tensor decomposition of Section IV.
//
// One streaming step distributes the relative complement X \ X̃ across
// M workers with a per-mode slice partitioning (GTP or MTP), replicates
// the R×R intermediate products on every worker, and then iterates, per
// mode:
//
//  1. distributed MTTKRP over each worker's local entries (IV-B1),
//  2. row-wise factor update of the worker's owned rows (IV-B2),
//  3. all-to-all reduction of the partial Gram products ÃᵀA⁰, A⁰ᵀA⁰,
//     A¹ᵀA¹ (IV-B3),
//  4. subscription-based exchange of the updated factor rows,
//
// and finally evaluates the loss by reusing the MTTKRP result and the
// freshly reduced Gram products (IV-B4) — no second pass over the
// tensor data.
//
// The update rules are not merely identical to the centralized DTD of
// internal/dtd — they are the same code: every rank drives the one
// dtd.Sweep engine, bound to its slice of the partition plan and to its
// cluster worker through the three-call dtd.Comm seam. At one worker
// the result equals dtd.Step bit for bit (factors and loss trace); at
// M > 1 only the reduction order of the Gram partials differs, which
// the equivalence tests bound at floating-point reordering tolerance.
package core

import (
	"errors"
	"fmt"
	"sync"

	"dismastd/internal/cluster"
	"dismastd/internal/dplan"
	"dismastd/internal/dtd"
	"dismastd/internal/mat"
	"dismastd/internal/mttkrp"
	"dismastd/internal/obs"
	"dismastd/internal/par"
	"dismastd/internal/partition"
	"dismastd/internal/sample"
	"dismastd/internal/tensor"
)

// Options configures a distributed streaming step.
type Options struct {
	Rank     int     // R (required, > 0)
	MaxIters int     // ALS sweeps per step; default 10
	Tol      float64 // relative loss-change stop threshold; default 1e-6
	Mu       float64 // forgetting factor; default 0.8
	Seed     uint64  // growth-block initialisation seed; default 1

	Workers int              // cluster size M (required, > 0)
	Parts   int              // partitions per mode; default Workers
	Method  partition.Method // GTP or MTP

	// Threads sizes each worker's shared-memory pool: every rank runs
	// its MTTKRP, row solves and Gram partials on Threads goroutines.
	// 0 or 1 means sequential. Results are bitwise identical at every
	// value (see internal/par).
	Threads int

	// Solver selects each rank's least-squares strategy: sample.Exact
	// (default) sweeps the rank's full entry lists; sample.Sampled runs
	// the leverage-score sketch of internal/sample over the rank's
	// partition instead. The sampled solver forces the broadcast row
	// exchange — leverage scores need every row of every replica fresh,
	// and a drawn tuple can land on any row, so the subscription sets of
	// the exact plan no longer bound what a rank reads (the
	// tensor-stationary layout's communication cost; see DESIGN.md).
	// Each rank draws sample.DefaultSamples rows per mode.
	Solver sample.Kind

	// Obs receives planning-time instrumentation (complement extraction
	// and partitioning spans, partition balance gauges). Per-rank compute
	// instruments come from each Worker's own bundle, not this one. May
	// be nil.
	Obs *obs.Obs

	// Ablation baselines, set only by this package's tests and
	// benchmarks. broadcastRows replaces the subscription-based row
	// exchange with a full broadcast of every owner's rows (implied by
	// the sampled solver); naiveLoss recomputes the tensor-model inner
	// product with a second pass over the entries instead of reusing the
	// MTTKRP result (the Section IV-B4 reuse).
	broadcastRows bool
	naiveLoss     bool
}

func (o *Options) withDefaults() (Options, error) {
	opts := *o
	if opts.Rank <= 0 {
		return opts, fmt.Errorf("core: rank must be positive, got %d", opts.Rank)
	}
	if opts.Workers <= 0 {
		return opts, fmt.Errorf("core: workers must be positive, got %d", opts.Workers)
	}
	if opts.MaxIters <= 0 {
		opts.MaxIters = 10
	}
	if opts.Tol < 0 {
		return opts, fmt.Errorf("core: negative tolerance %v", opts.Tol)
	}
	if opts.Tol == 0 {
		opts.Tol = 1e-6
	}
	if opts.Mu == 0 {
		opts.Mu = 0.8
	}
	if opts.Mu < 0 || opts.Mu > 1 {
		return opts, fmt.Errorf("core: forgetting factor %v outside (0, 1]", opts.Mu)
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Parts <= 0 {
		opts.Parts = opts.Workers
	}
	if opts.Threads < 0 {
		return opts, fmt.Errorf("core: negative thread count %d", opts.Threads)
	}
	if opts.Threads == 0 {
		opts.Threads = 1
	}
	if opts.Solver != sample.Exact && opts.Solver != sample.Sampled {
		return opts, fmt.Errorf("core: unknown solver %v", opts.Solver)
	}
	return opts, nil
}

// StepStats reports one distributed streaming step.
type StepStats struct {
	Iters         int
	Loss          float64
	LossTrace     []float64
	ComplementNNZ int
	Imbalance     []float64         // per-mode partition load CV (Table IV statistic)
	Cluster       *cluster.RunStats // measured traffic, work, wall time
	SetupBytes    int64             // estimated one-time distribution cost (Theorem 4)
	Phases        []obs.PhaseStat   // per-phase wall time aggregated across ranks
}

// Step advances the decomposition from prev to the new snapshot on an
// in-process cluster of opts.Workers workers — a one-step Session. prev
// is not modified.
func Step(prev *dtd.State, snapshot *tensor.Tensor, o Options) (*dtd.State, *StepStats, error) {
	if _, err := o.withDefaults(); err != nil {
		return nil, nil, err
	}
	return NewSession(o.Workers).Step(prev, snapshot, o)
}

// phasesOf merges every rank's span aggregates into one per-phase
// wall-time breakdown (mttkrp, solve, allreduce, exchange, loss).
func phasesOf(stats *cluster.RunStats) []obs.PhaseStat {
	if stats == nil {
		return nil
	}
	var all []obs.PhaseStat
	for _, rk := range stats.Ranks {
		if rk.Obs != nil {
			all = append(all, rk.Obs.Phases...)
		}
	}
	return obs.AggregatePhases(all)
}

// overrideAlgoMetrics replaces the run's traffic counters with the
// pre-collection snapshots recorded by each rank, so the reported
// per-step traffic covers the algorithm's iterations only.
func (j *StepJob) overrideAlgoMetrics(stats *cluster.RunStats) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i := range stats.Ranks {
		if i < len(j.algo) {
			stats.Ranks[i].Metrics = j.algo[i]
		}
	}
}

// NewStepJob validates and prepares one distributed streaming step
// without running it: the complement is extracted, partitioned, and the
// initial stacked factors built. The caller then drives RunWorker once
// per rank on a cluster of its choosing — Step uses an in-process
// cluster; examples/multiprocess drives the same job across TCP
// processes, each process constructing an identical job from the same
// inputs (deterministic planning makes the SPMD replicas agree).
func NewStepJob(prev *dtd.State, snapshot *tensor.Tensor, o Options) (*StepJob, error) {
	opts, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	sweep, err := dtd.NewSweep(prev, snapshot, dtd.Options{
		Rank: opts.Rank, MaxIters: opts.MaxIters, Tol: opts.Tol, Mu: opts.Mu, Seed: opts.Seed,
		Threads: opts.Threads, Solver: opts.Solver, Obs: opts.Obs,
	})
	if err != nil {
		return nil, err
	}
	if opts.Solver == sample.Sampled {
		// Fail here, at plan time, so the per-rank sampler construction in
		// bind can never fail mid-run.
		if err := sample.CheckDims(snapshot.Dims); err != nil {
			return nil, err
		}
	}
	sp := opts.Obs.Span("plan/partition")
	plan := dplan.Build(sweep.Complement(), opts.Workers, opts.Parts, opts.Method)
	sp.End()
	if opts.Obs != nil {
		for _, mp := range plan.ModePlans {
			mp.Observe(opts.Obs.Reg)
		}
	}
	return &StepJob{
		opts:  opts,
		sweep: sweep,
		plan:  plan,
		algo:  make([]cluster.Metrics, opts.Workers),
	}, nil
}

// stateOf wraps assembled factors as a state; the mode sizes are their
// row counts.
func stateOf(factors []*mat.Dense) *dtd.State {
	st := &dtd.State{Dims: make([]int, len(factors)), Factors: factors}
	for m, f := range factors {
		st.Dims[m] = f.Rows
	}
	return st
}

// Result assembles the new state and summary statistics after every
// rank's RunWorker has returned. The Cluster field of the stats is left
// nil for the caller to fill with its runtime's measurements.
func (j *StepJob) Result() (*dtd.State, *StepStats, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result == nil {
		return nil, nil, ErrNoResult
	}
	return stateOf(j.result), j.statsOf(j.lossTrace), nil
}

// statsOf summarises a finished step of this job's plan from the loss
// trace its sweeps left.
func (j *StepJob) statsOf(trace []float64) *StepStats {
	return &StepStats{
		Iters:         len(trace),
		Loss:          trace[len(trace)-1],
		LossTrace:     trace,
		ComplementNNZ: j.plan.Tensor.NNZ(),
		Imbalance:     j.plan.Imbalance(),
		SetupBytes:    j.plan.SetupBytes(j.opts.Rank),
	}
}

// StepJob carries the read-only shared inputs and the coordinator-side
// outputs of one distributed step. Workers read the shared fields
// concurrently; result fields are written only by rank 0 under mu.
// Build one with NewStepJob.
type StepJob struct {
	opts  Options
	sweep *dtd.Sweep // the step's validated shared inputs; bind derives each rank's engine
	plan  *dplan.Plan

	mu        sync.Mutex
	result    []*mat.Dense
	lossTrace []float64
	algo      []cluster.Metrics // per-rank traffic before result collection
}

// rankComm is the distributed dtd.Comm: one rank's collectives over its
// cluster worker and its subscription-based row exchange over the plan.
type rankComm struct {
	w         *cluster.Worker
	exch      *dplan.Exchanger
	broadcast bool
	cBytes    *obs.Counter // allreduce.bytes: batched Gram payload bytes sent
	naive     *naiveLoss   // non-nil under the naiveLoss ablation
}

// naiveLoss is what the naiveLoss ablation's second pass over the
// tensor data reads: the rank's last-mode entries and factor replicas.
type naiveLoss struct {
	entries []int32
	comp    *tensor.Tensor
	factors []*mat.Dense
	tmp     []float64 // per-entry product buffer
}

func (c *rankComm) AllReduceSumInPlace(vec []float64) error {
	c.cBytes.Add(int64(8 * len(vec)))
	return c.w.AllReduceSumInPlace(vec)
}

func (c *rankComm) PostRows(mode int, factor *mat.Dense) error {
	return c.exch.Post(mode, factor, c.broadcast)
}

func (c *rankComm) CollectRows(mode int, factor *mat.Dense) error {
	return c.exch.Collect(mode, factor, c.broadcast)
}

// ReduceScalarSum sums the ranks' shares of the loss's tensor-model
// inner product. Under the naiveLoss ablation the share the engine
// reused from its MTTKRP is discarded for one recomputed entry by entry
// (the baseline Section IV-B4 improves on).
func (c *rankComm) ReduceScalarSum(x float64) (float64, error) {
	if c.naive != nil {
		x = c.naive.inner()
		c.w.AddWork(float64(len(c.naive.entries)) * float64(len(c.naive.factors)) * float64(len(c.naive.tmp)))
	}
	return c.w.ReduceScalarSum(x)
}

func (l *naiveLoss) inner() float64 {
	n := len(l.factors)
	var inner float64
	for _, e := range l.entries {
		base := int(e) * n
		for c := range l.tmp {
			l.tmp[c] = 1
		}
		for k := 0; k < n; k++ {
			row := l.factors[k].Row(int(l.comp.Coords[base+k]))
			for c := range l.tmp {
				l.tmp[c] *= row[c]
			}
		}
		s := 0.0
		for _, v := range l.tmp {
			s += v
		}
		inner += l.comp.Vals[e] * s
	}
	return inner
}

// kernels builds rank me's kernels, one per mode, as chunks of pool:
// the compiled layouts of the rank's entry lists, fresh for each binding
// (a rank binds a plan once).
func (j *StepJob) kernels(me int, pool *par.Pool) []mttkrp.Kernel {
	return mttkrp.CompileKernels(pool, j.plan.Tensor, j.plan.EntryLists[me])
}

// bindRank derives rank w's engine from the plan: the rank's pool of
// Threads, kernels over the rank's entry lists compiled on it (see
// kernels), the rows it owns, and its collectives; the engine adopts
// the pool and stacks the step's starting point for the rank
// (dtd.Sweep.Bind from nil factors). The sampled solver forces the
// broadcast row exchange (see Options.Solver). It also returns the
// rank's row Exchanger, which the engine's exchanges run on and the
// step's end — the gather, or the elastic state sync — reuses. Close
// the engine when done.
func (j *StepJob) bindRank(w *cluster.Worker) (*dtd.Sweep, *dplan.Exchanger) {
	me := w.Rank()
	comp := j.plan.Tensor
	n := comp.Order()
	pool := par.New(j.opts.Threads)
	sp := w.Obs().Span("plan/compile")
	kernels := j.kernels(me, pool)
	sp.End()
	owned := make([][]int32, n)
	sorted := 0
	for m := range owned {
		owned[m] = j.plan.OwnedSlices[m][me]
		sorted += j.plan.ModePlans[m].Sorted
	}
	w.Obs().Counter("plan.slices.sorted").Add(int64(sorted))
	var smp *sample.Sampler
	if j.opts.Solver == sample.Sampled {
		var err error
		smp, err = sample.New(comp, j.plan.EntryLists[me], j.opts.Rank, sample.DefaultSamples, j.opts.Seed, me)
		if err != nil {
			// NewStepJob ran sample.CheckDims on these dims already.
			panic(fmt.Sprintf("core: sampler construction failed after CheckDims: %v", err))
		}
	}
	exch := dplan.NewExchanger(w, j.plan)
	comm := &rankComm{
		w:         w,
		exch:      exch,
		broadcast: j.opts.broadcastRows || smp != nil,
		cBytes:    w.Obs().Counter("allreduce.bytes"),
	}
	eng := j.sweep.Bind(pool, nil, kernels, owned, smp, comm, w.Obs())
	if j.opts.naiveLoss {
		comm.naive = &naiveLoss{entries: j.plan.EntryLists[me][n-1], comp: comp, factors: eng.Factors(), tmp: make([]float64, j.opts.Rank)}
	}
	return eng, exch
}

// RunWorker is the SPMD body executed by every rank. It must be called
// exactly once per rank of a cluster of Workers() size.
func (j *StepJob) RunWorker(w *cluster.Worker) error {
	eng, exch := j.bindRank(w)
	defer eng.Close()
	me := w.Rank()

	err := eng.Run(nil)
	w.AddWork(eng.Work())
	if err != nil {
		return err
	}

	// Record algorithm-only traffic: the result gather below is a
	// one-time O(NIR) collection, already covered by the Theorem 4
	// setup/teardown term, not a per-iteration cost.
	j.mu.Lock()
	j.algo[me] = w.MetricsSnapshot()
	j.mu.Unlock()

	sp := w.Obs().Span("gather")
	result, err := exch.Gather(eng.Factors())
	sp.End()
	if err != nil {
		return err
	}
	if me == 0 {
		j.mu.Lock()
		j.result = result
		j.lossTrace = eng.LossTrace()
		j.mu.Unlock()
	}
	return nil
}

// ErrNoResult is returned when a run completes without rank 0
// assembling factors (should not happen; defensive).
var ErrNoResult = errors.New("core: run completed without a result")
