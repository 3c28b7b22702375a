package core

// Chaos coverage for the in-process transport: deterministic FaultPlan
// schedules injected into a real DisMASTD step. A mid-sweep send
// failure must produce a fast, rank-attributed error, unblock every
// rank through the failed rank's down mark, and leave no goroutines
// behind.

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"dismastd/internal/cluster"
	"dismastd/internal/partition"
)

// stableGoroutines samples the goroutine count until it stops above
// target or the budget runs out, absorbing exiting-goroutine lag.
func stableGoroutines(target int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > target; i++ {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func TestChaosLocalSendFaultMidSweep(t *testing.T) {
	full := sparseRandom([]int{20, 18, 15}, 600, 71)
	prev := initState(t, full.Prefix([]int{16, 14, 12}), 3, 73)
	before := runtime.NumGoroutine()

	boom := errors.New("injected mid-sweep link failure")
	// Rank 1's 30th send lands well inside the ALS sweeps (the initial
	// Gram replication alone takes a handful per pair).
	plan := cluster.NewFaultPlan(cluster.FaultRule{From: 1, To: cluster.AnyRank, FirstSeq: 30, LastSeq: -1, Op: cluster.FaultError, Err: boom})

	job, err := NewStepJob(prev, full, Options{Rank: 3, MaxIters: 5, Tol: 0, Workers: 3, Method: partition.MTPMethod, Seed: 75})
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.NewLocal(job.opts.Workers)
	cl.SetRecvTimeout(60 * time.Second)
	cl.SetFaultPlan(plan)

	start := time.Now()
	_, runErr := cl.Run(job.RunWorker)
	elapsed := time.Since(start)

	// Run returning at all proves the down marks released every blocked
	// rank; fail-fast means far sooner than the receive timeout.
	if runErr == nil {
		t.Fatal("injected fault produced no error")
	}
	if !errors.Is(runErr, boom) {
		t.Fatalf("error = %v, want injected failure", runErr)
	}
	if !strings.Contains(runErr.Error(), "rank 1") {
		t.Fatalf("error %q not attributed to rank 1", runErr)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("fault took %v to surface", elapsed)
	}
	if plan.FiredOp(cluster.FaultError) == 0 {
		t.Fatal("fault plan never fired")
	}
	// The transport's injection counters mirror the plan's accounting.
	m := cl.Obs().Reg.Snapshot().Counters
	fired := 0
	for _, op := range []cluster.FaultOp{cluster.FaultError, cluster.FaultDrop, cluster.FaultDelay, cluster.FaultCut} {
		fired += plan.FiredOp(op)
	}
	if m["transport.faults.injected"] != int64(fired) {
		t.Fatalf("faults.injected = %d, plan fired %d", m["transport.faults.injected"], fired)
	}
	if m["transport.faults.error"] != int64(plan.FiredOp(cluster.FaultError)) {
		t.Fatalf("faults.error = %d, plan fired %d", m["transport.faults.error"], plan.FiredOp(cluster.FaultError))
	}
	if _, _, err := job.Result(); err == nil {
		t.Fatal("failed job still produced a result")
	}
	if after := stableGoroutines(before); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

func TestChaosLocalDropPoisonsViaTimeout(t *testing.T) {
	// A silently dropped Gram contribution stalls the reduction; the
	// receive timeout must convert the stall into a run failure that
	// unblocks all ranks, again without leaking goroutines.
	full := sparseRandom([]int{15, 12, 10}, 300, 91)
	prev := initState(t, full.Prefix([]int{12, 10, 8}), 3, 93)
	before := runtime.NumGoroutine()

	plan := cluster.NewFaultPlan(cluster.FaultRule{From: 2, To: 0, TagPrefix: "reduce", FirstSeq: 0, LastSeq: -1, Op: cluster.FaultDrop})
	job, err := NewStepJob(prev, full, Options{Rank: 3, MaxIters: 3, Tol: 0, Workers: 3, Method: partition.MTPMethod, Seed: 95})
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.NewLocal(job.opts.Workers)
	cl.SetRecvTimeout(250 * time.Millisecond)
	cl.SetFaultPlan(plan)
	_, runErr := cl.Run(job.RunWorker)
	if runErr == nil || !errors.Is(runErr, cluster.ErrTimeout) {
		t.Fatalf("error = %v, want receive timeout from dropped reduction", runErr)
	}
	if plan.FiredOp(cluster.FaultDrop) == 0 {
		t.Fatal("drop rule never fired")
	}
	if m := cl.Obs().Reg.Snapshot().Counters; m["transport.faults.drop"] != int64(plan.FiredOp(cluster.FaultDrop)) {
		t.Fatalf("faults.drop = %d, plan fired %d", m["transport.faults.drop"], plan.FiredOp(cluster.FaultDrop))
	}
	if after := stableGoroutines(before); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}
