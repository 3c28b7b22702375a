package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// startTCPCluster spins up a rendezvous plus size nodes on loopback and
// returns the joined nodes.
func startTCPCluster(t *testing.T, size int) []*TCPNode {
	t.Helper()
	rv, err := NewRendezvous("127.0.0.1:0", size)
	if err != nil {
		t.Skipf("loopback networking unavailable: %v", err)
	}
	t.Cleanup(func() { rv.Close() })

	nodes := make([]*TCPNode, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for i := 0; i < size; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nodes[i], errs[i] = JoinTCP(rv.Addr(), "127.0.0.1:0", 5*time.Second)
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

// runTCP executes fn on every node concurrently, like Local.Run does
// for goroutine workers.
func runTCP(t *testing.T, nodes []*TCPNode, fn func(*Worker) error) []*RunStats {
	t.Helper()
	stats := make([]*RunStats, len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *TCPNode) {
			defer wg.Done()
			stats[i], errs[i] = n.Run(fn)
		}(i, n)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	return stats
}

func TestTCPRanksAssigned(t *testing.T) {
	nodes := startTCPCluster(t, 3)
	seen := make(map[int]bool)
	for _, n := range nodes {
		if n.Size() != 3 {
			t.Fatalf("size %d", n.Size())
		}
		seen[n.Rank()] = true
	}
	if len(seen) != 3 {
		t.Fatalf("ranks not distinct: %v", seen)
	}
}

func TestTCPPointToPointAndCollectives(t *testing.T) {
	nodes := startTCPCluster(t, 3)
	runTCP(t, nodes, func(w *Worker) error {
		next := (w.Rank() + 1) % w.Size()
		prev := (w.Rank() - 1 + w.Size()) % w.Size()
		if err := w.Send(next, "ring", []byte{byte(w.Rank())}); err != nil {
			return err
		}
		got, err := w.Recv(prev, "ring")
		if err != nil {
			return err
		}
		if int(got[0]) != prev {
			return fmt.Errorf("token %d from %d", got[0], prev)
		}
		sum, err := w.ReduceScalarSum(float64(w.Rank()))
		if err != nil {
			return err
		}
		if sum != 3 { // 0+1+2
			return fmt.Errorf("reduce sum %v", sum)
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		got, err = w.BroadcastBytes(2, []byte{byte(w.Rank() + 1)})
		if err != nil {
			return err
		}
		if len(got) != 1 || got[0] != 3 {
			return fmt.Errorf("broadcast from rank 2 delivered %v", got)
		}
		return nil
	})
}

func TestTCPMetrics(t *testing.T) {
	nodes := startTCPCluster(t, 2)
	stats := runTCP(t, nodes, func(w *Worker) error {
		if w.Rank() == 0 {
			return w.Send(1, "data", make([]byte, 1000))
		}
		_, err := w.Recv(0, "data")
		return err
	})
	var sent int64
	for _, s := range stats {
		sent += s.Ranks[0].BytesSent
	}
	if sent < 1000 {
		t.Fatalf("sent bytes %d", sent)
	}
}

func TestTCPNodeCloseFailsPendingRecv(t *testing.T) {
	nodes := startTCPCluster(t, 2)
	done := make(chan error, 1)
	go func() {
		_, err := nodes[0].Run(func(w *Worker) error {
			_, err := w.Recv(1, "never")
			return err
		})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	nodes[0].Close()
	select {
	case err := <-done:
		if err == nil || !errors.Is(err, ErrClosed) {
			t.Fatalf("error = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending recv not released by Close")
	}
}

func TestTCPRecvTimeout(t *testing.T) {
	nodes := startTCPCluster(t, 2)
	nodes[0].SetRecvTimeout(50 * time.Millisecond)
	_, err := nodes[0].Run(func(w *Worker) error {
		_, err := w.Recv(1, "silence")
		return err
	})
	if err == nil || !errors.Is(err, ErrTimeout) {
		t.Fatalf("error = %v, want timeout", err)
	}
}

func TestRendezvousRejectsBadSize(t *testing.T) {
	if _, err := NewRendezvous("127.0.0.1:0", 0); err == nil {
		t.Fatal("size 0 accepted")
	}
}

func TestTCPReconnectAfterCut(t *testing.T) {
	// A transiently broken connection must be redialed transparently:
	// every message still arrives (tags demultiplex across the old and
	// new connection), with the cut recovered inside a single Send call.
	nodes := startTCPCluster(t, 2)
	plan := NewFaultPlan(FaultRule{From: 0, To: 1, FirstSeq: 1, Op: FaultCut})
	for _, n := range nodes {
		if n.Rank() == 0 {
			n.SetFaultPlan(plan)
		}
	}
	const msgs = 4
	runTCP(t, nodes, func(w *Worker) error {
		if w.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				if err := w.Send(1, fmt.Sprintf("m%d", i), []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			b, err := w.Recv(0, fmt.Sprintf("m%d", i))
			if err != nil {
				return err
			}
			if int(b[0]) != i {
				return fmt.Errorf("message %d carried payload %d", i, b[0])
			}
		}
		return nil
	})
	if plan.FiredOp(FaultCut) != 1 {
		t.Fatalf("cuts fired = %d", plan.FiredOp(FaultCut))
	}
	// The fault-tolerance machinery reports through the node's registry:
	// the cut write fails (one eviction), the redial succeeds inside the
	// same Send (one reconnect), and the injection itself is counted.
	var cutter *TCPNode
	for _, n := range nodes {
		if n.Rank() == 0 {
			cutter = n
		}
	}
	m := cutter.Obs().Reg.Snapshot().Counters
	if m["transport.evictions"] != 1 {
		t.Fatalf("evictions = %d, want 1", m["transport.evictions"])
	}
	if m["transport.reconnects"] != 1 {
		t.Fatalf("reconnects = %d, want 1", m["transport.reconnects"])
	}
	if m["transport.faults.cut"] != 1 || m["transport.faults.injected"] != 1 {
		t.Fatalf("fault counters = %v", m)
	}
	if m["transport.dial.attempts"] < 2 {
		t.Fatalf("dial attempts = %d, want >= 2 (initial dial + redial)", m["transport.dial.attempts"])
	}
}

func TestTCPRunMetricsAreDeltas(t *testing.T) {
	// Regression: RunStats from repeated TCPNode.Run invocations used to
	// report traffic since node creation. Two identical back-to-back
	// phases must each report the same (disjoint) counts.
	nodes := startTCPCluster(t, 2)
	phase := func(w *Worker) error {
		peer := 1 - w.Rank()
		if err := w.Send(peer, "blob", make([]byte, 500)); err != nil {
			return err
		}
		if _, err := w.Recv(peer, "blob"); err != nil {
			return err
		}
		_, err := w.ReduceScalarSum(1)
		return err
	}
	first := runTCP(t, nodes, phase)
	second := runTCP(t, nodes, phase)
	for i := range nodes {
		a, b := first[i].Ranks[0].Metrics, second[i].Ranks[0].Metrics
		if a.MsgsSent == 0 || a.BytesSent == 0 {
			t.Fatalf("node %d first run reported no traffic: %+v", i, a)
		}
		// Message counts must match exactly; byte counts differ by the
		// few bytes of the per-Run tag epoch, so allow that jitter while
		// rejecting anything close to cumulative (2x) totals.
		if a.MsgsSent != b.MsgsSent || a.MsgsRecv != b.MsgsRecv {
			t.Fatalf("node %d runs not disjoint: first %+v, second %+v", i, a, b)
		}
		if diff := b.BytesSent - a.BytesSent; diff < -16 || diff > 16 {
			t.Fatalf("node %d second run bytes cumulative: first %+v, second %+v", i, a, b)
		}
		// The Worker-level snapshot jobs use for algorithm-only traffic
		// must be Run-scoped on the same baseline.
		if o := second[i].Ranks[0].Obs; o == nil {
			t.Fatalf("node %d missing obs snapshot", i)
		}
	}
}

// TestTCPSendHook keeps its name from the send hook a FaultPlan rule
// now stands in for: a tag-scoped injected error fails exactly the send
// it matches, on the TCP path as on the in-process transport.
func TestTCPSendHook(t *testing.T) {
	nodes := startTCPCluster(t, 2)
	boom := errors.New("hooked")
	nodes[0].SetFaultPlan(NewFaultPlan(FaultRule{From: AnyRank, To: AnyRank, TagPrefix: "poisoned", LastSeq: -1, Op: FaultError, Err: boom}))
	_, err := nodes[0].Run(func(w *Worker) error {
		if err := w.Send(1-w.Rank(), "clean", nil); err != nil {
			return err
		}
		return w.Send(1-w.Rank(), "poisoned", nil)
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("error = %v, want hook error", err)
	}
}

// tcpPattern is a traffic mix (point-to-point, self-send, collective)
// run identically on both transports by the metrics parity test.
func tcpPattern(w *Worker) error {
	peer := 1 - w.Rank()
	if err := w.Send(peer, "ping", make([]byte, 64)); err != nil {
		return err
	}
	if _, err := w.Recv(peer, "ping"); err != nil {
		return err
	}
	if err := w.Send(w.Rank(), "self", make([]byte, 16)); err != nil {
		return err
	}
	if _, err := w.Recv(w.Rank(), "self"); err != nil {
		return err
	}
	_, err := w.ReduceScalarSum(1)
	return err
}

func TestTransportMetricsParity(t *testing.T) {
	// Both transports must count traffic identically: one receive
	// increment per consumed message (the TCP read loop and self-send
	// path used to double count).
	local := NewLocal(2)
	localStats, err := local.Run(tcpPattern)
	if err != nil {
		t.Fatal(err)
	}
	nodes := startTCPCluster(t, 2)
	tcpStats := runTCP(t, nodes, tcpPattern)
	for _, n := range nodes {
		rank := n.Rank()
		got := tcpStats[indexOfNode(nodes, n)].Ranks[0].Metrics
		want := localStats.Ranks[rank].Metrics
		if got.MsgsSent != want.MsgsSent || got.MsgsRecv != want.MsgsRecv ||
			got.BytesSent != want.BytesSent || got.BytesRecv != want.BytesRecv {
			t.Fatalf("rank %d metrics diverge: tcp %+v, local %+v", rank, got, want)
		}
	}
}

func indexOfNode(nodes []*TCPNode, n *TCPNode) int {
	for i := range nodes {
		if nodes[i] == n {
			return i
		}
	}
	return -1
}

func TestTCPMultipleRunsTagEpochs(t *testing.T) {
	// Back-to-back Run calls on the same nodes must not cross-match
	// collective tags even when one rank races ahead into the next
	// phase.
	nodes := startTCPCluster(t, 3)
	for phase := 0; phase < 4; phase++ {
		want := float64(3 * (phase + 1))
		runTCP(t, nodes, func(w *Worker) error {
			got, err := w.ReduceScalarSum(float64(phase + 1))
			if err != nil {
				return err
			}
			if got != want {
				return fmt.Errorf("phase %d sum %v, want %v", phase, got, want)
			}
			return nil
		})
	}
}

func TestJoinRetriesUntilRendezvousUp(t *testing.T) {
	// Workers may start before the rendezvous: the join dial retries
	// with backoff until the coordinator is listening.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback networking unavailable: %v", err)
	}
	addr := probe.Addr().String()
	probe.Close()

	type result struct {
		node *TCPNode
		err  error
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			n, err := JoinTCP(addr, "127.0.0.1:0", 10*time.Second)
			results <- result{n, err}
		}()
	}
	time.Sleep(200 * time.Millisecond) // joiners are already retrying
	rv, err := NewRendezvous(addr, 2)
	if err != nil {
		t.Skipf("rendezvous port reuse failed: %v", err)
	}
	defer rv.Close()
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("join: %v", r.err)
		}
		defer r.node.Close()
	}
	if err := rv.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestRendezvousRejectsMalformedJoiner(t *testing.T) {
	var logged int
	rv, err := NewRendezvousConfigured("127.0.0.1:0", 1, RendezvousConfig{
		JoinIOTimeout: 200 * time.Millisecond,
		Logf:          func(string, ...any) { logged++ },
	})
	if err != nil {
		t.Skipf("loopback networking unavailable: %v", err)
	}
	defer rv.Close()

	// Garbage, a join request as an older gob-speaking binary sends it,
	// a well-formed frame under another tag, a join frame with no
	// address, and a stalled joiner must all be rejected without
	// blocking cluster formation.
	var data, empty bytes.Buffer
	var fw frameWriter
	fw.write(&data, &Message{Tag: "rows/0", Payload: []byte("127.0.0.1:7")})
	fw.write(&empty, &Message{Tag: rendezvousTag})
	bad := []string{
		"this is not a frame",
		"'\x7f\x03\x01\x01\vjoinRequest\x01\xff\x80\x00\x01\x01\x01\nListenAddr\x01\f\x00\x00\x00\x10\xff\x80\x01\v127.0.0.1:7\x00",
		data.String(),
		empty.String(),
	}
	for _, b := range bad {
		conn, err := net.Dial("tcp", rv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.Write([]byte(b))
		defer conn.Close()
	}
	stalled, err := net.Dial("tcp", rv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close() // sends nothing: handshake deadline rejects it
	// The rendezvous handles joiners in accept order; wait until it has
	// turned the bad ones away so the legitimate join is accepted after
	// them.
	for deadline := time.Now().Add(5 * time.Second); rv.rejected.Load() < int64(len(bad)); {
		if time.Now().After(deadline) {
			t.Fatalf("rejected %d of %d malformed joiners", rv.rejected.Load(), len(bad))
		}
		time.Sleep(time.Millisecond)
	}

	node, err := JoinTCP(rv.Addr(), "127.0.0.1:0", 5*time.Second)
	if err != nil {
		t.Fatalf("legitimate join blocked by bad joiners: %v", err)
	}
	defer node.Close()
	if err := rv.Wait(); err != nil {
		t.Fatal(err)
	}
	if rv.rejected.Load() < int64(len(bad)) {
		t.Fatalf("rejected = %d, want >= %d", rv.rejected.Load(), len(bad))
	}
	if logged < len(bad) {
		t.Fatalf("logged = %d, want >= %d", logged, len(bad))
	}
}

func TestRendezvousJoinWindowExpires(t *testing.T) {
	rv, err := NewRendezvousConfigured("127.0.0.1:0", 2, RendezvousConfig{
		JoinWindow: 150 * time.Millisecond,
	})
	if err != nil {
		t.Skipf("loopback networking unavailable: %v", err)
	}
	defer rv.Close()
	done := make(chan error, 1)
	go func() { done <- rv.Wait() }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "join window") {
			t.Fatalf("error = %v, want join window expiry", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("join window never expired")
	}
}
