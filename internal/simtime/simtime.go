// Package simtime converts the cluster runtime's *measured* per-rank
// work and traffic into an estimated wall-clock time on a real cluster.
//
// The reproduction host has a single CPU core, so goroutine workers
// cannot exhibit real multi-node speedup; the node-scaling experiment
// (Fig. 7) therefore runs the actual distributed algorithm at every
// cluster size — measuring the true per-worker flop counts, bytes, and
// message counts — and maps them to time with a Spark-like cost model:
//
//	T = Startup·iters                      (task scheduling overhead)
//	  + max_w work_w / ComputeRate         (the straggler's compute)
//	  + max_w bytes_w / Bandwidth          (the busiest link)
//	  + max_w msgs_w · Latency             (per-message overhead)
//
// Only the mapping from measured counts to seconds is modelled; the
// counts themselves come from executing the real algorithm. The default
// constants approximate the paper's testbed (Spark 2.2 on 2.2 GHz
// Xeons, Gigabit Ethernet); DESIGN.md documents this substitution.
package simtime

import (
	"time"

	"dismastd/internal/cluster"
)

// Model holds the cost constants.
type Model struct {
	ComputeRate float64       // work units (≈flops) per second per node
	Bandwidth   float64       // bytes per second per node link
	Latency     time.Duration // per-message overhead
	Startup     time.Duration // per-iteration task scheduling overhead
}

// Default approximates the paper's testbed: JVM-throughput sparse
// arithmetic (~2e8 useful flop/s per executor), Gigabit Ethernet
// (~117 MB/s), sub-millisecond in-rack latency, and Spark's task
// launch overhead of roughly 100 ms per scheduling wave.
func Default() Model {
	return Model{
		ComputeRate: 2e8,
		Bandwidth:   117e6,
		Latency:     500 * time.Microsecond,
		Startup:     100 * time.Millisecond,
	}
}

// estimate maps a run's measured statistics to cluster seconds. iters
// is the number of ALS sweeps the run performed. waves is the number of
// scheduling waves per sweep: ceil(partitions/workers) — with more
// partitions than workers, Spark schedules the excess tasks in
// additional waves, each paying Startup again (the rising right side of
// the Fig. 6 U-curve).
func (m Model) estimate(stats *cluster.RunStats, iters, waves int) time.Duration {
	if iters < 1 {
		iters = 1
	}
	if waves < 1 {
		waves = 1
	}
	var maxWork, maxBytes, maxMsgs float64
	for _, r := range stats.Ranks {
		if r.Work > maxWork {
			maxWork = r.Work
		}
		b := float64(r.BytesSent + r.BytesRecv)
		if b > maxBytes {
			maxBytes = b
		}
		msgs := float64(r.MsgsSent + r.MsgsRecv)
		if msgs > maxMsgs {
			maxMsgs = msgs
		}
	}
	compute := time.Duration(maxWork / m.ComputeRate * float64(time.Second))
	network := time.Duration(maxBytes / m.Bandwidth * float64(time.Second))
	latency := time.Duration(maxMsgs * float64(m.Latency))
	startup := time.Duration(iters*waves) * m.Startup
	return startup + compute + network + latency
}

// PerIteration returns estimate divided by the iteration count — the
// "running time per iteration" every figure in Section V reports.
func (m Model) PerIteration(stats *cluster.RunStats, iters, waves int) time.Duration {
	if iters < 1 {
		iters = 1
	}
	return m.estimate(stats, iters, waves) / time.Duration(iters)
}

// Waves returns ceil(parts/workers), the scheduling waves per sweep.
func Waves(parts, workers int) int {
	if workers <= 0 || parts <= workers {
		return 1
	}
	return (parts + workers - 1) / workers
}
