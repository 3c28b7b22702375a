package bench

import (
	"time"

	"dismastd/internal/cluster"
)

// costModel is the Spark-like cluster model behind every sim/iter
// column. The in-process ranks share the host's few cores, so their
// wall clock cannot show multi-node speedup (Fig. 7); instead a run's
// *measured* per-rank work, bytes and messages — counts that depend on
// neither the host nor the thread count — map to cluster seconds as
//
//	T = Startup·iters·waves + max_w work_w / ComputeRate
//	  + max_w bytes_w / Bandwidth + max_w msgs_w · Latency
//
// (task scheduling, the straggler's compute, the busiest link,
// per-message overhead). DESIGN.md ("Substitutions") documents it.
type costModel struct {
	computeRate float64       // work units (≈flops) per second per node
	bandwidth   float64       // bytes per second per node link
	latency     time.Duration // per-message overhead
	startup     time.Duration // per-iteration task scheduling overhead
}

// defaultModel approximates the paper's testbed: JVM-throughput sparse
// arithmetic (~2e8 useful flop/s per executor), Gigabit Ethernet
// (~117 MB/s), sub-millisecond in-rack latency, and Spark's task
// launch overhead of roughly 100 ms per scheduling wave.
func defaultModel() costModel {
	return costModel{
		computeRate: 2e8,
		bandwidth:   117e6,
		latency:     500 * time.Microsecond,
		startup:     100 * time.Millisecond,
	}
}

// estimate maps a run's measured statistics to cluster seconds. iters
// is the number of ALS sweeps the run performed. waves is the number of
// scheduling waves per sweep: ceil(partitions/workers) — with more
// partitions than workers, Spark schedules the excess tasks in
// additional waves, each paying startup again (the rising right side of
// the Fig. 6 U-curve).
func (m costModel) estimate(stats *cluster.RunStats, iters, waves int) time.Duration {
	if iters < 1 {
		iters = 1
	}
	if waves < 1 {
		waves = 1
	}
	var maxWork, maxBytes, maxMsgs float64
	for _, r := range stats.Ranks {
		maxWork = max(maxWork, r.Work)
		maxBytes = max(maxBytes, float64(r.BytesSent+r.BytesRecv))
		maxMsgs = max(maxMsgs, float64(r.MsgsSent+r.MsgsRecv))
	}
	compute := time.Duration(maxWork / m.computeRate * float64(time.Second))
	network := time.Duration(maxBytes / m.bandwidth * float64(time.Second))
	latency := time.Duration(maxMsgs * float64(m.latency))
	startup := time.Duration(iters*waves) * m.startup
	return startup + compute + network + latency
}

// perIteration returns estimate divided by the iteration count — the
// "running time per iteration" every figure in Section V reports.
func (m costModel) perIteration(stats *cluster.RunStats, iters, waves int) time.Duration {
	if iters < 1 {
		iters = 1
	}
	return m.estimate(stats, iters, waves) / time.Duration(iters)
}

// waves returns ceil(parts/workers), the scheduling waves per sweep.
func waves(parts, workers int) int {
	if workers <= 0 || parts <= workers {
		return 1
	}
	return (parts + workers - 1) / workers
}
