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
// declared down: the node's mailbox is poisoned with ErrPeerDown so
// blocked receives fail within a bounded window instead of burning the
// full receive timeout, and subsequent sends to the dead rank fail
// immediately.

// heartbeatTag is the reserved tag probes travel under. User tags come
// from Worker.Send callers and collective names; none start with a NUL
// byte, so probes can never be mistaken for payload traffic.
const heartbeatTag = "\x00hb"

// ErrPeerDown reports a peer declared dead by failure detection: no
// traffic arrived from the rank within the detection window. It
// surfaces from both pending receives (via the poisoned mailbox) and
// later sends to the dead rank.
type ErrPeerDown struct {
	Rank int
}

func (e *ErrPeerDown) Error() string {
	return fmt.Sprintf("cluster: peer rank %d down (no heartbeat within detection window)", e.Rank)
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
			n.obs.Logger().Warn("peer declared down", "peer", r, "window", hb.window)
			// Poison (the pre-elastic contract: blocked receives fail
			// fast) and mark the sender down so that, after an elastic
			// recovery clears the poison, receives from the dead rank
			// keep failing with the rank-attributed error.
			n.mbox.peerDown(r, &ErrPeerDown{Rank: r}, true)
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
