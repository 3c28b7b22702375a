package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"dismastd/internal/cluster"
	"dismastd/internal/core"
	"dismastd/internal/dplan"
	"dismastd/internal/dtd"
	"dismastd/internal/layout"
	"dismastd/internal/mat"
	"dismastd/internal/mttkrp"
	"dismastd/internal/par"
	"dismastd/internal/partition"
	"dismastd/internal/tensor"
	"dismastd/internal/xrand"
)

// Per-layer metrics of the numeric stack. Each one times calls into a
// layer's exported functions from outside, on the inputs of one real
// step of the workload: the state entering the step, the step's
// snapshot, and the state the step produced.

type probeInput struct {
	prev     *dtd.State     // state entering the probed step
	snap     *tensor.Tensor // the step's snapshot
	cur      *dtd.State     // state the step produced (factors at snap's dims)
	workers  int            // ranks the workload's own engine runs the step on
	seedStep int            // stream step index, for the growth-block seed
}

type layerMetrics struct {
	res *result
	rec *recorder
	cfg config
}

func (lm *layerMetrics) reps(n int) int {
	if lm.cfg.scale < 1 {
		return max(2, n/4)
	}
	return n
}

// timed records reps calls of fn as spans under one probe span and
// returns the per-call milliseconds.
func (lm *layerMetrics) timed(name string, reps int, fn func()) []float64 {
	id := lm.rec.begin("probe " + name)
	defer lm.rec.end(id)
	out := make([]float64, reps)
	for i := range out {
		sid := lm.rec.begin(name)
		t0 := time.Now()
		fn()
		out[i] = ms(time.Since(t0))
		lm.rec.end(sid)
	}
	return out
}

func (lm *layerMetrics) numericStack(in probeInput) error {
	res := lm.res
	n := in.snap.Order()
	r10 := lm.reps(10)

	// tensor
	var comp *tensor.Tensor
	complementMS := median(lm.timed("tensor.Complement", r10, func() {
		comp = in.snap.Complement(in.prev.Dims)
	}))
	res.set("tensor.complement_ms", complementMS)
	if comp.NNZ() == 0 {
		return fmt.Errorf("probe step has an empty complement")
	}
	nb := min(4096, in.snap.NNZ())
	idx := make([]int, n)
	res.set("tensor.build_ms", median(lm.timed("tensor.Builder 4096", r10, func() {
		b := tensor.NewBuilder(in.snap.Dims)
		for e := 0; e < nb; e++ {
			idx = in.snap.Coord(e, idx)
			b.Append(idx, in.snap.Val(e))
		}
		b.Build()
	})))
	res.Counts["probe_complement_nnz"] = int64(comp.NNZ())

	// layout, mttkrp kernels
	compiled := make([]mttkrp.Kernel, n)
	res.set("layout.compile_ms", median(lm.timed("layout.Compile all modes", r10, func() {
		for m := 0; m < n; m++ {
			compiled[m] = layout.Compile(comp, m, nil)
		}
	})))
	coo := make([]mttkrp.Kernel, n)
	kernelBuild := median(lm.timed("mttkrp.NewKernel coo all modes", r10, func() {
		for m := 0; m < n; m++ {
			coo[m] = mttkrp.NewKernel(comp, m, layout.COO)
		}
	}))
	res.set("mttkrp.kernel_build_ms", kernelBuild)

	factors := in.cur.Factors
	cols := factors[0].Cols
	mres := make([]*mat.Dense, n)
	for m := range mres {
		mres[m] = mat.New(in.snap.Dims[m], cols)
	}
	accumulate := func(acc *mttkrp.ParAccumulator, kernels []mttkrp.Kernel) func() {
		return func() {
			for m := 0; m < n; m++ {
				mres[m].Zero()
				acc.Accumulate(mres[m], kernels[m], factors, "")
			}
		}
	}
	seq := mttkrp.NewParAccumulator(nil, mat.NewWorkspaceSet(1), nil)
	accCompiled := median(lm.timed("mttkrp.Accumulate compiled all modes", r10, accumulate(seq, compiled)))
	accCOO := median(lm.timed("mttkrp.Accumulate coo all modes", r10, accumulate(seq, coo)))
	perNNZ := 1e6 / float64(n*comp.NNZ()) // ms over all modes -> ns per entry per mode
	res.set("mttkrp.coo_ns_per_nnz", accCOO*perNNZ)
	res.set("mttkrp.compiled_ns_per_nnz", accCompiled*perNNZ)

	if runtime.NumCPU() >= 2 {
		pool := par.New(2)
		acc2 := mttkrp.NewParAccumulator(pool, mat.NewWorkspaceSet(2), nil)
		t2 := median(lm.timed("mttkrp.Accumulate coo pool=2", r10, accumulate(acc2, coo)))
		pool.Close()
		res.set("par.speedup_t2", accCOO/t2)
	} else {
		res.set("par.speedup_t2", 0)
		res.skip("par.speedup_t2", "needs 2 threads, nproc is 1")
	}
	// Leave the sequential result in mres: it is the solve's input.
	accumulate(seq, coo)()

	// mat
	rows := 0
	grams := make([]*mat.Dense, n)
	for m := range grams {
		grams[m] = mat.New(cols, cols)
		rows += factors[m].Rows
	}
	gramMS := median(lm.timed("mat.GramInto all modes", r10, func() {
		for m := 0; m < n; m++ {
			mat.GramInto(grams[m], factors[m])
		}
	}))
	denoms := make([]*mat.Dense, n)
	solved := make([]*mat.Dense, n)
	for m := 0; m < n; m++ {
		var others []*mat.Dense
		for k := 0; k < n; k++ {
			if k != m {
				others = append(others, grams[k])
			}
		}
		denoms[m] = mat.HadamardAll(others...)
		solved[m] = mat.New(mres[m].Rows, cols)
	}
	ws := mat.NewWorkspace()
	solveMS := median(lm.timed("mat.SolveRightRidgeInto all modes", r10, func() {
		for m := 0; m < n; m++ {
			mat.SolveRightRidgeInto(solved[m], mres[m], denoms[m], ws)
		}
	}))
	res.set("mat.gram_ns_per_row", gramMS*1e6/float64(rows))
	res.set("mat.solve_ns_per_row", solveMS*1e6/float64(rows))

	// partition, dplan
	hist := make([][]int64, n)
	for m := range hist {
		hist[m] = comp.SliceNNZ(m)
	}
	cv := 0.0
	res.set("partition.plan_ms", median(lm.timed("partition.Partition mtp p=2 all modes", r10, func() {
		cv = 0
		for m := 0; m < n; m++ {
			cv = max(cv, partition.Partition(hist[m], 2, partition.MTPMethod).ImbalanceStdDev())
		}
	})))
	res.set("partition.imbalance_cv", cv)
	var plan *dplan.Plan
	res.set("dplan.build_ms", median(lm.timed("dplan.Build", r10, func() {
		plan = dplan.Build(comp, 2, 2, partition.MTPMethod)
	})))

	// cluster + dplan collectives, in-process and over loopback TCP
	var joinMS []float64
	var pair *tcpPair
	for i := 0; i < lm.reps(5); i++ {
		if pair != nil {
			pair.close()
		}
		id := lm.rec.begin("cluster.Rendezvous + 2x JoinTCP")
		t0 := time.Now()
		var err error
		pair, err = joinTCPPair()
		joinMS = append(joinMS, ms(time.Since(t0)))
		lm.rec.end(id)
		if err != nil {
			return fmt.Errorf("join TCP pair: %w", err)
		}
	}
	defer pair.close()
	res.set("cluster.join_ms", median(joinMS))

	local := cluster.NewLocal(2)
	onLocal := func(fn func(rank int, w *cluster.Worker) error) (*cluster.RunStats, error) {
		return local.Run(func(w *cluster.Worker) error { return fn(w.Rank(), w) })
	}
	onTCP := func(fn func(rank int, w *cluster.Worker) error) (*cluster.RunStats, error) {
		_, err := pair.run(fn)
		return nil, err
	}
	var exLocal, exTCP, arLocal, arTCP []float64
	exchange := func(reps int, sync bool, out *[]float64) func(int, *cluster.Worker) error {
		return func(rank int, w *cluster.Worker) error {
			replica := make([]*mat.Dense, n)
			for m := range replica {
				replica[m] = factors[m].Clone()
			}
			ex := dplan.NewExchanger(w, plan)
			for i := 0; i < reps; i++ {
				if sync {
					if err := w.Barrier(); err != nil {
						return err
					}
				}
				t0 := time.Now()
				for m := 0; m < n; m++ {
					if err := ex.Exchange(m, replica[m], false); err != nil {
						return err
					}
				}
				if rank == 0 {
					*out = append(*out, ms(time.Since(t0))/float64(n))
				}
			}
			return nil
		}
	}
	allreduce := func(reps int, out *[]float64) func(int, *cluster.Worker) error {
		return func(rank int, w *cluster.Worker) error {
			vec := make([]float64, n*cols*cols)
			for i := 0; i < reps; i++ {
				t0 := time.Now()
				if err := w.AllReduceSumInPlace(vec); err != nil {
					return err
				}
				if rank == 0 {
					*out = append(*out, ms(time.Since(t0))*1e3)
				}
			}
			return nil
		}
	}
	var runErr error
	collective := func(name string, on func(func(int, *cluster.Worker) error) (*cluster.RunStats, error), fn func(int, *cluster.Worker) error) *cluster.RunStats {
		id := lm.rec.begin("probe " + name)
		defer lm.rec.end(id)
		stats, err := on(fn)
		if err != nil && runErr == nil {
			runErr = fmt.Errorf("%s: %w", name, err)
		}
		return stats
	}
	collective("dplan.Exchange local", onLocal, exchange(r10, true, &exLocal))
	collective("dplan.Exchange tcp", onTCP, exchange(r10, true, &exTCP))
	var once []float64
	counted := collective("dplan.Exchange local, byte count", onLocal, exchange(1, false, &once))
	collective("cluster.AllReduceSumInPlace local", onLocal, allreduce(lm.reps(50), &arLocal))
	collective("cluster.AllReduceSumInPlace tcp", onTCP, allreduce(lm.reps(50), &arTCP))
	if runErr != nil {
		return runErr
	}
	exMS := median(exLocal)
	arUS := median(arLocal)
	res.set("dplan.exchange_ms", exMS)
	res.set("dplan.exchange_tcp_ms", median(exTCP))
	res.set("dplan.exchange_kb", float64(counted.TotalBytes())/float64(n)/1e3)
	res.set("cluster.allreduce_local_us", arUS)
	res.set("cluster.allreduce_tcp_us", median(arTCP))

	// core and dtd: the same step on two in-process ranks and on one.
	seed := xrand.Derive(0, uint64(in.seedStep))
	copts := core.Options{Rank: cols, MaxIters: iters, Tol: tol, Seed: seed, Workers: 2, Method: partition.MTPMethod, Threads: 1}
	r5 := lm.reps(5)
	jobBuild := median(lm.timed("core.NewStepJob", r5, func() {
		if _, err := core.NewStepJob(in.prev, in.snap, copts); err != nil && runErr == nil {
			runErr = err
		}
	}))
	sess := core.NewSession(2)
	var stats *core.StepStats
	coreStep := median(lm.timed("core.Session.Step", r5, func() {
		var err error
		if _, stats, err = sess.Step(in.prev, in.snap, copts); err != nil && runErr == nil {
			runErr = err
		}
	}))
	dtdStep := median(lm.timed("dtd.Step", r5, func() {
		o := dtd.Options{Rank: cols, MaxIters: iters, Tol: tol, Seed: seed, Threads: 1}
		if _, _, err := dtd.Step(in.prev, in.snap, o); err != nil && runErr == nil {
			runErr = err
		}
	}))
	if runErr != nil {
		return runErr
	}
	res.set("core.job_build_ms", jobBuild)
	res.set("core.serial_pct", 100*jobBuild/coreStep)
	res.set("core.step_ms", coreStep)
	res.set("dtd.step_ms", dtdStep)
	res.set("cluster.msgs_per_step", float64(stats.Cluster.TotalMessages()))
	res.set("cluster.bytes_per_step", float64(stats.Cluster.TotalBytes()))
	if runtime.NumCPU() >= 2 {
		res.set("core.speedup_w2", dtdStep/coreStep)
	} else {
		res.set("core.speedup_w2", 0)
		res.skip("core.speedup_w2", "needs 2 ranks, nproc is 1")
	}

	// dtd state I/O
	var buf bytes.Buffer
	res.set("dtd.state_write_ms", median(lm.timed("dtd.WriteStateSteps", r10, func() {
		buf.Reset()
		if err := dtd.WriteStateSteps(&buf, in.cur, 1); err != nil && runErr == nil {
			runErr = err
		}
	})))
	res.set("dtd.state_read_ms", median(lm.timed("dtd.ReadStateSteps", r10, func() {
		if _, _, err := dtd.ReadStateSteps(bytes.NewReader(buf.Bytes())); err != nil && runErr == nil {
			runErr = err
		}
	})))
	res.set("dtd.state_mb", float64(buf.Len())/1e6)
	if runErr != nil {
		return runErr
	}

	// Shares of the step the workload's own engine runs, and the row
	// that forces the layers to add up. On two ranks the per-rank
	// kernels are taken as an even split of the single-rank time.
	step, perRank := dtdStep, 1.0
	attributed := complementMS + kernelBuild
	if in.workers > 1 {
		step, perRank = coreStep, float64(in.workers)
		attributed = jobBuild + iters*float64(n)*(exMS+arUS/1e3)
	}
	kernels := iters * accCOO / perRank
	dense := iters * (gramMS + solveMS) / perRank
	attributed += kernels + dense
	res.set("mttkrp.share_pct", 100*kernels/step)
	res.set("mat.dense_share_pct", 100*dense/step)
	res.set("step.unattributed_pct", 100*(step-attributed)/step)
	return nil
}
