package cluster

import (
	"errors"
	"testing"
	"time"
)

func startHeartbeats(t *testing.T, nodes []*TCPNode, interval time.Duration, misses int) {
	t.Helper()
	for _, n := range nodes {
		if err := n.StartHeartbeat(interval, misses); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHeartbeatDetectsDeadPeer(t *testing.T) {
	nodes := startTCPCluster(t, 3)
	const interval = 25 * time.Millisecond
	startHeartbeats(t, nodes, interval, 3)

	// Find the survivors and the victim by rank so assertions are
	// rank-attributed regardless of join order.
	var victim *TCPNode
	var survivors []*TCPNode
	for _, n := range nodes {
		if n.Rank() == 2 {
			victim = n
		} else {
			survivors = append(survivors, n)
		}
	}
	victim.Close()

	start := time.Now()
	for _, n := range survivors {
		n.SetRecvTimeout(30 * time.Second)
		_, err := n.Run(func(w *Worker) error {
			_, err := w.Recv(2, "never")
			return err
		})
		pd, ok := AsPeerDown(err)
		if !ok {
			t.Fatalf("rank %d error = %v, want ErrPeerDown", n.Rank(), err)
		}
		if pd.Rank != 2 {
			t.Fatalf("peer-down rank = %d, want 2", pd.Rank)
		}
	}
	// Detection must be bounded by a few heartbeat intervals, far below
	// the 30s receive timeout.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("detection took %v", elapsed)
	}
}

func TestHeartbeatSendToDeadPeerFailsTyped(t *testing.T) {
	nodes := startTCPCluster(t, 2)
	const interval = 25 * time.Millisecond
	startHeartbeats(t, nodes, interval, 3)
	var alive, dead *TCPNode
	for _, n := range nodes {
		if n.Rank() == 0 {
			alive = n
		} else {
			dead = n
		}
	}
	dead.Close()
	// Wait for detection, then verify sends fail with the typed error
	// instead of burning dial retries.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := alive.Run(func(w *Worker) error {
			return w.Send(1, "late", []byte("x"))
		})
		if pd, ok := AsPeerDown(err); ok {
			if pd.Rank != 1 {
				t.Fatalf("peer-down rank = %d, want 1", pd.Rank)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("send error = %v, want ErrPeerDown", err)
		}
		time.Sleep(interval)
	}
}

func TestHeartbeatQuietClusterStaysUp(t *testing.T) {
	// Probes alone must keep an idle cluster alive: no false positives
	// while no payload traffic flows. The detection window (interval ×
	// misses) is wide enough that a prober descheduled for a couple of
	// hundred milliseconds on a loaded two-core machine is not a miss.
	nodes := startTCPCluster(t, 3)
	const interval, misses = 100 * time.Millisecond, 3
	startHeartbeats(t, nodes, interval, misses)
	time.Sleep(5 * misses * interval) // five detection windows
	// All pairs still communicate after the idle period.
	runTCP(t, nodes, func(w *Worker) error {
		if err := w.Barrier(); err != nil {
			return err
		}
		_, err := w.ReduceScalarSum(1)
		return err
	})
}

func TestHeartbeatRejectsBadConfig(t *testing.T) {
	nodes := startTCPCluster(t, 2)
	if err := nodes[0].StartHeartbeat(0, 3); err == nil {
		t.Fatal("zero interval accepted")
	}
	if err := nodes[0].StartHeartbeat(10*time.Millisecond, 3); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].StartHeartbeat(10*time.Millisecond, 3); err == nil {
		t.Fatal("double start accepted")
	}
}

func TestPeerDownErrorFormat(t *testing.T) {
	err := error(&ErrPeerDown{Rank: 7})
	if err.Error() == "" {
		t.Fatal("empty message")
	}
	var pd *ErrPeerDown
	if !errors.As(err, &pd) || pd.Rank != 7 {
		t.Fatalf("errors.As failed on %v", err)
	}
	if errors.Is(err, ErrClosed) {
		t.Fatal("ErrPeerDown must not match ErrClosed")
	}
}
