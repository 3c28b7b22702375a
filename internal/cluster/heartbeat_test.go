package cluster

import (
	"errors"
	"fmt"
	"strings"
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
		if pd.Rank != 2 || pd.cause != downSilent {
			t.Fatalf("peer-down %v, want rank 2 with no heartbeat", pd)
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
			if pd.Rank != 1 || pd.cause != downSilent {
				t.Fatalf("peer-down %v, want rank 1 with no heartbeat", pd)
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
	for _, c := range []struct {
		cause downCause
		want  string
	}{
		{downSilent, "cluster: peer rank 7 down (no heartbeat within detection window)"},
		{downReturned, "cluster: peer rank 7 down (its worker returned)"},
		{downRevoked, "cluster: peer rank 7 down (revoked by a survivor)"},
	} {
		err := fmt.Errorf("step 3: %w", &ErrPeerDown{Rank: 7, cause: c.cause})
		if got := errors.Unwrap(err).Error(); got != c.want {
			t.Errorf("cause %d: message %q, want %q", c.cause, got, c.want)
		}
		var pd *ErrPeerDown
		if !errors.As(err, &pd) || pd.Rank != 7 {
			t.Fatalf("errors.As failed on %v", err)
		}
		if pd, ok := AsPeerDown(err); !ok || pd.Rank != 7 {
			t.Fatalf("AsPeerDown(%v) = %v, %v", err, pd, ok)
		}
		if errors.Is(err, ErrClosed) {
			t.Fatal("ErrPeerDown must not match ErrClosed")
		}
	}
	// A literal without a cause reads as a heartbeat expiry.
	if got := (&ErrPeerDown{Rank: 2}).Error(); !strings.Contains(got, "no heartbeat") {
		t.Errorf("zero cause reads %q, want the heartbeat wording", got)
	}
}

// TestLocalReturnedRankNamesNoHeartbeat: on cluster.Local no heartbeat
// runs, so a peer whose worker function returned is reported as having
// returned, rank-attributed, not as a missed heartbeat.
func TestLocalReturnedRankNamesNoHeartbeat(t *testing.T) {
	_, err := NewLocal(2).Run(func(w *Worker) error {
		if w.Rank() == 1 {
			return nil
		}
		_, err := w.Recv(1, "never")
		return err
	})
	pd, ok := AsPeerDown(err)
	if !ok || pd.Rank != 1 {
		t.Fatalf("error = %v, want rank 1's ErrPeerDown", err)
	}
	if msg := err.Error(); strings.Contains(msg, "heartbeat") || !strings.Contains(msg, "its worker returned") {
		t.Fatalf("error %q names a heartbeat or not the return", msg)
	}
}
