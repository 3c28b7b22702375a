package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Heartbeat-based failure detection for the TCP transport. Every node
// probes every peer each interval over the regular message connections;
// any inbound traffic (probe or payload) refreshes the sender's
// last-seen time. A peer silent for misses consecutive intervals is
// declared down, and subsequent sends to it fail immediately. When the
// peer is a member of the view the node runs (the whole world until a
// ViewWorker is derived), the node's mailbox is also poisoned with
// ErrPeerDown so blocked receives fail within a bounded window instead
// of burning the full receive timeout.

// heartbeatTag is the reserved tag probes travel under. User tags come
// from Worker.Send callers and collective names; none start with a NUL
// byte, so probes can never be mistaken for payload traffic.
const heartbeatTag = "\x00hb"

// ErrPeerDown reports a peer declared dead: no traffic arrived from the
// rank within the heartbeat detection window, or, on cluster.Local, the
// rank's worker function returned, or a survivor revoked the rank for
// the whole world (Worker.Revoke). The three read the same to callers;
// only the message says which. It surfaces from both pending receives
// (via the poisoned mailbox over TCP, the drained-and-down queue in
// process) and later sends to the dead rank.
type ErrPeerDown struct {
	Rank  int
	cause downCause
}

// downCause is why a rank was declared down. The zero value is a
// heartbeat expiry.
type downCause uint8

const (
	downSilent   downCause = iota // no heartbeat within the detection window
	downReturned                  // the in-process rank's worker function returned
	downRevoked                   // a survivor revoked the rank
)

func (e *ErrPeerDown) Error() string {
	why := "no heartbeat within detection window"
	switch e.cause {
	case downReturned:
		why = "its worker returned"
	case downRevoked:
		why = "revoked by a survivor"
	}
	return fmt.Sprintf("cluster: peer rank %d down (%s)", e.Rank, why)
}

// AsPeerDown extracts an ErrPeerDown from err's chain, if present.
func AsPeerDown(err error) (*ErrPeerDown, bool) {
	var pd *ErrPeerDown
	ok := errors.As(err, &pd)
	return pd, ok
}

// heartbeat is a node's failure-detector state.
type heartbeat struct {
	interval time.Duration
	window   time.Duration

	mu       sync.Mutex
	lastSeen []time.Time
	down     []bool
}

// observe refreshes a peer's liveness on any inbound message. It
// reports whether the peer had been declared down — inbound traffic
// from a "dead" rank means it restarted, so the declaration is lifted
// and the caller clears the transport-level down marks.
func (hb *heartbeat) observe(rank int) (revived bool) {
	hb.mu.Lock()
	if rank >= 0 && rank < len(hb.lastSeen) {
		hb.lastSeen[rank] = time.Now()
		if hb.down[rank] {
			hb.down[rank] = false
			revived = true
		}
	}
	hb.mu.Unlock()
	return revived
}

// markDown force-declares a rank dead (an epoch revocation relayed by
// a peer), so sends to it fail fast without waiting out the local
// detection window.
func (hb *heartbeat) markDown(rank int) {
	hb.mu.Lock()
	if rank >= 0 && rank < len(hb.down) {
		hb.down[rank] = true
	}
	hb.mu.Unlock()
}

// expire marks every newly silent peer down and returns their ranks.
func (hb *heartbeat) expire(self int) []int {
	now := time.Now()
	hb.mu.Lock()
	defer hb.mu.Unlock()
	var expired []int
	for r := range hb.lastSeen {
		if r == self || hb.down[r] {
			continue
		}
		if now.Sub(hb.lastSeen[r]) > hb.window {
			hb.down[r] = true
			expired = append(expired, r)
		}
	}
	return expired
}

// isDown reports whether the detector has declared rank dead.
func (hb *heartbeat) isDown(rank int) bool {
	hb.mu.Lock()
	defer hb.mu.Unlock()
	return rank >= 0 && rank < len(hb.down) && hb.down[rank]
}

// StartHeartbeat turns on failure detection: the node probes every peer
// each interval and declares a peer down after misses intervals with no
// inbound traffic from it (misses <= 0 defaults to 3). Detection
// latency is therefore bounded by roughly (misses+1) x interval. All
// cluster members must run heartbeats for liveness to be observable
// everywhere. The detector stops when the node is closed.
func (n *TCPNode) StartHeartbeat(interval time.Duration, misses int) error {
	if interval <= 0 {
		return fmt.Errorf("cluster: heartbeat interval %v", interval)
	}
	if misses <= 0 {
		misses = 3
	}
	hb := &heartbeat{
		interval: interval,
		window:   time.Duration(misses) * interval,
		lastSeen: make([]time.Time, n.size),
		down:     make([]bool, n.size),
	}
	now := time.Now()
	for i := range hb.lastSeen {
		hb.lastSeen[i] = now
	}
	if !n.hb.CompareAndSwap(nil, hb) {
		return fmt.Errorf("cluster: heartbeat already running")
	}
	go n.heartbeatLoop(hb)
	return nil
}

func (n *TCPNode) heartbeatLoop(hb *heartbeat) {
	ticker := time.NewTicker(hb.interval)
	defer ticker.Stop()
	for {
		select {
		case <-n.closed:
			return
		case <-ticker.C:
		}
		// Check liveness before probing: a dead peer must not let slow
		// probe I/O (a hanging dial) push detection past the window.
		for _, r := range hb.expire(n.rank) {
			n.tc.hbMisses.Inc()
			// Mark the sender down, drain-then-fail. A member's silence
			// also poisons the mailbox (blocked receives fail fast); a
			// non-member's — a drained rank, a finished spare — is no
			// fault, as cluster.Local treats a returned rank.
			member := n.mbox.isMember(r)
			n.obs.Logger().Warn("peer declared down", "peer", r, "window", hb.window, "member", member)
			n.mbox.peerDown(r, &ErrPeerDown{Rank: r, cause: downSilent}, member)
		}
		probe := Message{From: n.rank, Tag: heartbeatTag}
		for r := 0; r < n.size; r++ {
			if r == n.rank || hb.isDown(r) {
				continue
			}
			n.tc.hbProbes.Inc()
			_ = n.writeTo(r, &probe, 1) // detection watches inbound silence, not probe errors
		}
	}
}
