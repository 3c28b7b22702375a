package cluster_test

// Chaos tests driving the full DisMASTD step over the TCP transport
// with deterministic fault injection: the acceptance bar for the
// fault-tolerance layer is that a transient connection drop mid-step is
// recovered transparently (bitwise-correct factors), while a
// permanently dead rank surfaces as a typed ErrPeerDown within the
// heartbeat window.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dismastd/internal/cluster"
	"dismastd/internal/core"
	"dismastd/internal/dtd"
	"dismastd/internal/mat"
	"dismastd/internal/partition"
	"dismastd/internal/tensor"
	"dismastd/internal/xrand"
)

func chaosTensor(dims []int, nnz int, seed uint64) *tensor.Tensor {
	src := xrand.New(seed)
	b := tensor.NewBuilder(dims)
	idx := make([]int, len(dims))
	for e := 0; e < nnz; e++ {
		for m, d := range dims {
			idx[m] = src.Intn(d)
		}
		b.Append(idx, src.Float64()+0.5)
	}
	return b.Build()
}

func startNodes(t *testing.T, size int) []*cluster.TCPNode {
	t.Helper()
	rv, err := cluster.NewRendezvous("127.0.0.1:0", size)
	if err != nil {
		t.Skipf("loopback networking unavailable: %v", err)
	}
	t.Cleanup(func() { rv.Close() })
	nodes := make([]*cluster.TCPNode, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for i := 0; i < size; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nodes[i], errs[i] = cluster.JoinTCP(rv.Addr(), "127.0.0.1:0", 5*time.Second)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatalf("join: %v", err)
		}
	}
	if err := rv.Wait(); err != nil {
		t.Fatalf("rendezvous: %v", err)
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	return nodes
}

func stepOpts(workers int) core.Options {
	return core.Options{Rank: 3, MaxIters: 4, Tol: 0, Mu: 0.8, Seed: 21, Workers: workers, Method: partition.MTPMethod}
}

func TestChaosTCPTransientCutRecoversExactFactors(t *testing.T) {
	const workers = 3
	snap := chaosTensor([]int{18, 15, 12}, 700, 11)
	prev := dtd.EmptyState(3, 3)

	// Reference: the same step on the in-process transport with no
	// faults. The distributed computation is deterministic, so the TCP
	// run must reproduce it bitwise.
	refJob, err := core.NewStepJob(prev, snap, stepOpts(workers))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.NewLocal(workers).Run(refJob.RunWorker); err != nil {
		t.Fatal(err)
	}
	refState, _, err := refJob.Result()
	if err != nil {
		t.Fatal(err)
	}

	nodes := startNodes(t, workers)
	// One transient connection drop mid-step on rank 1's outbound link
	// to rank 0: the send path must cut, redial, and resend without the
	// algorithm noticing.
	plan := cluster.NewFaultPlan(cluster.FaultRule{From: 1, To: 0, FirstSeq: 3, Op: cluster.FaultCut})
	for _, n := range nodes {
		n.SetRecvTimeout(30 * time.Second)
		if n.Rank() == 1 {
			n.SetFaultPlan(plan)
		}
	}

	job, err := core.NewStepJob(prev, snap, stepOpts(workers))
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *cluster.TCPNode) {
			defer wg.Done()
			_, errs[i] = n.Run(job.RunWorker)
		}(i, n)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	if plan.FiredOp(cluster.FaultCut) != 1 {
		t.Fatalf("cuts fired = %d, want 1", plan.FiredOp(cluster.FaultCut))
	}
	got, _, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	for m := range got.Factors {
		if d := mat.MaxAbsDiff(got.Factors[m], refState.Factors[m]); d != 0 {
			t.Fatalf("mode %d factors diverge by %g after reconnection", m, d)
		}
	}
	// The recovery is visible in the injecting node's registry: the cut
	// write evicted the connection, the redial was a reconnect, and the
	// injected fault was counted by kind.
	for _, n := range nodes {
		if n.Rank() != 1 {
			continue
		}
		m := n.Obs().Reg.Snapshot().Counters
		if m["transport.faults.cut"] != 1 {
			t.Fatalf("faults.cut = %d, want 1", m["transport.faults.cut"])
		}
		if m["transport.evictions"] != 1 || m["transport.reconnects"] != 1 {
			t.Fatalf("evictions = %d, reconnects = %d, want 1 each",
				m["transport.evictions"], m["transport.reconnects"])
		}
	}
}

// TestChaosTCPKillMidAllReduce kills a rank midway through an
// all-reduce: rank 2's one up-tree send errors (fault injection) and its
// node closes. Of the survivors, rank 0 folds in rank 1's partial and
// then blocks on the dead rank, while rank 1, handed off, blocks
// head-of-line on the broadcast from a *live* rank 0 that can make no
// progress. Both must surface a rank-attributed ErrPeerDown well before
// the receive timeout instead of hanging in the tree.
func TestChaosTCPKillMidAllReduce(t *testing.T) {
	const workers = 3
	nodes := startNodes(t, workers)
	const interval = 25 * time.Millisecond
	crash := errors.New("injected crash mid all-reduce")
	for _, n := range nodes {
		n.SetRecvTimeout(60 * time.Second)
		if err := n.StartHeartbeat(interval, 3); err != nil {
			t.Fatal(err)
		}
		if n.Rank() == 2 {
			n.SetFaultPlan(cluster.NewFaultPlan(cluster.FaultRule{
				From: 2, To: 0, TagPrefix: "reduce", Op: cluster.FaultError, Err: crash,
			}))
		}
	}
	start := time.Now()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *cluster.TCPNode) {
			defer wg.Done()
			_, errs[i] = n.Run(func(w *cluster.Worker) error {
				vec := make([]float64, 4096)
				for j := range vec {
					vec[j] = float64(w.Rank())
				}
				return w.AllReduceSumInPlace(vec)
			})
			if n.Rank() == 2 {
				n.Close() // the injected error "crashes" the process
			}
		}(i, n)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i, n := range nodes {
		if n.Rank() == 2 {
			if !errors.Is(errs[i], crash) {
				t.Fatalf("killed rank error = %v", errs[i])
			}
			continue
		}
		pd, ok := cluster.AsPeerDown(errs[i])
		if !ok {
			t.Fatalf("rank %d error = %v, want ErrPeerDown", n.Rank(), errs[i])
		}
		if pd.Rank != 2 {
			t.Fatalf("rank %d blamed peer %d, want 2", n.Rank(), pd.Rank)
		}
	}
	if elapsed > 10*time.Second {
		t.Fatalf("all-reduce kill detection took %v", elapsed)
	}
}

func TestChaosTCPKilledRankSurfacesPeerDown(t *testing.T) {
	const workers = 3
	snap := chaosTensor([]int{16, 14, 12}, 500, 31)
	prev := dtd.EmptyState(3, 3)
	nodes := startNodes(t, workers)
	const interval = 25 * time.Millisecond
	for _, n := range nodes {
		n.SetRecvTimeout(60 * time.Second)
		if err := n.StartHeartbeat(interval, 3); err != nil {
			t.Fatal(err)
		}
	}
	job, err := core.NewStepJob(prev, snap, stepOpts(workers))
	if err != nil {
		t.Fatal(err)
	}
	// The rank-2 node dies before doing any work; survivors must fail
	// with a rank-attributed ErrPeerDown well before the 60s receive
	// timeout instead of hanging in their collectives.
	start := time.Now()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *cluster.TCPNode) {
			defer wg.Done()
			if n.Rank() == 2 {
				n.Close()
				errs[i] = errors.New("killed")
				return
			}
			_, errs[i] = n.Run(job.RunWorker)
		}(i, n)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i, n := range nodes {
		if n.Rank() == 2 {
			continue
		}
		pd, ok := cluster.AsPeerDown(errs[i])
		if !ok {
			t.Fatalf("rank %d error = %v, want ErrPeerDown", n.Rank(), errs[i])
		}
		if pd.Rank != 2 {
			t.Fatalf("rank %d blamed peer %d, want 2", n.Rank(), pd.Rank)
		}
	}
	if elapsed > 10*time.Second {
		t.Fatalf("detection took %v", elapsed)
	}
	// Every survivor's failure detector recorded the missed peer (one
	// heartbeat.misses increment per declared-down rank) and was probing.
	for _, n := range nodes {
		if n.Rank() == 2 {
			continue
		}
		m := n.Obs().Reg.Snapshot().Counters
		if m["transport.heartbeat.misses"] != 1 {
			t.Fatalf("rank %d heartbeat.misses = %d, want 1", n.Rank(), m["transport.heartbeat.misses"])
		}
		if m["transport.heartbeat.probes"] == 0 {
			t.Fatalf("rank %d sent no probes", n.Rank())
		}
	}
}
