package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dismastd/internal/obs"
	"dismastd/internal/xrand"
)

// TCP transport: the same Worker API running across OS processes. A
// rendezvous service assigns ranks and distributes the address table;
// each node then exchanges Messages as frames (message.go) over lazily
// dialed point-to-point connections. cmd/worker and
// examples/multiprocess use this to run DisMASTD as a real
// multi-process cluster.
//
// The transport tolerates transient network faults: dials retry with
// exponential backoff and jitter under per-attempt deadlines, a broken
// connection is evicted and transparently redialed (the failed message
// is re-sent on the fresh connection), the rendezvous bounds every
// joiner's handshake so one malformed client cannot wedge cluster
// formation, and optional heartbeats (heartbeat.go) turn a dead peer
// into a typed ErrPeerDown within a bounded window. fault.go's
// FaultPlan drives all of these paths deterministically in tests.

// rendezvousTag is the protocol tag of the join handshake, one frame
// each way: the request carries the joiner's listen address, the reply
// a u16 rank and then the address table, one address per line. A peer
// that speaks anything else fails the first frame check and is rejected.
const rendezvousTag = "\x00rendezvous/1"

// maxAddrLen bounds the listen address a join request may carry.
const maxAddrLen = 1 << 10

func writeHandshake(w io.Writer, payload []byte) error {
	var fw frameWriter
	return fw.write(w, &Message{Tag: rendezvousTag, Payload: payload})
}

func readHandshake(r io.Reader, limit int) ([]byte, error) {
	msg, err := newFrameReader(r, newBufPool(), limit).read()
	if err == nil && msg.Tag != rendezvousTag {
		err = fmt.Errorf("not a join handshake (tag %q)", msg.Tag)
	}
	return msg.Payload, err
}

func encodeJoinReply(rank int, addrs []string) []byte {
	return append(binary.LittleEndian.AppendUint16(nil, uint16(rank)), strings.Join(addrs, "\n")...)
}

func decodeJoinReply(b []byte) (int, []string, error) {
	if len(b) < 3 {
		return 0, nil, fmt.Errorf("join reply of %d bytes", len(b))
	}
	rank, addrs := int(binary.LittleEndian.Uint16(b)), strings.Split(string(b[2:]), "\n")
	if rank >= len(addrs) || slices.Contains(addrs, "") {
		return 0, nil, fmt.Errorf("join reply assigns rank %d in a table of %d, or lists an empty address", rank, len(addrs))
	}
	return rank, addrs, nil
}

// Fault handling: dials back off exponentially between attempts, half of
// each pause jittered, under a per-attempt deadline, and a send survives
// sendResends reconnect-and-resend cycles.
const (
	dialAttempts = 5
	dialBackoff  = 50 * time.Millisecond // before the second attempt
	maxBackoff   = 2 * time.Second
	dialTimeout  = 3 * time.Second
	sendResends  = 2
)

// jitterSource is a mutex-guarded deterministic generator for backoff
// jitter; seeding it per rank decorrelates simultaneous redials without
// sacrificing reproducibility.
type jitterSource struct {
	mu  sync.Mutex
	src *xrand.Source
}

// backoff returns the pause before retry attempt (0-based): half the
// exponential delay deterministic, half jittered.
func (j *jitterSource) backoff(attempt int) time.Duration {
	d := dialBackoff
	for i := 0; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	half := min(d, maxBackoff) / 2
	j.mu.Lock()
	defer j.mu.Unlock()
	return half + time.Duration(j.src.Int63n(int64(half)+1))
}

func seedFromString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// RendezvousConfig hardens the rendezvous against misbehaving joiners.
type RendezvousConfig struct {
	// JoinIOTimeout bounds each joiner's handshake I/O (reading the join
	// request, writing the rank reply). Zero means 10s.
	JoinIOTimeout time.Duration
	// JoinWindow bounds the overall wait for the full cluster to form;
	// zero means wait indefinitely.
	JoinWindow time.Duration
	// Logf, when set, receives one line per rejected joiner.
	Logf func(format string, args ...any)
}

const defaultJoinIOTimeout = 10 * time.Second

// Rendezvous is the rank-assignment service: it accepts exactly size
// joins, assigns ranks in join order, and sends every member the full
// address table. Joiners that stall or send anything but a join request
// frame are rejected (counted, optionally logged) instead of blocking
// formation.
type Rendezvous struct {
	ln       net.Listener
	size     int
	cfg      RendezvousConfig
	done     chan error
	rejected atomic.Int64
}

// NewRendezvous binds addr (e.g. "127.0.0.1:0") and starts accepting
// joins for a cluster of the given size, with default hardening.
func NewRendezvous(addr string, size int) (*Rendezvous, error) {
	return NewRendezvousConfigured(addr, size, RendezvousConfig{})
}

// NewRendezvousConfigured is NewRendezvous with explicit join deadlines
// and rejected-join logging.
func NewRendezvousConfigured(addr string, size int, cfg RendezvousConfig) (*Rendezvous, error) {
	if size <= 0 || size > math.MaxUint16 {
		return nil, fmt.Errorf("cluster: rendezvous size %d", size)
	}
	if cfg.JoinIOTimeout <= 0 {
		cfg.JoinIOTimeout = defaultJoinIOTimeout
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: rendezvous listen: %w", err)
	}
	r := &Rendezvous{ln: ln, size: size, cfg: cfg, done: make(chan error, 1)}
	go r.serve()
	return r, nil
}

// Addr returns the bound rendezvous address workers should dial.
func (r *Rendezvous) Addr() string { return r.ln.Addr().String() }

// Wait blocks until every worker has joined and received its rank, or
// an accept error occurred, or the join window expired.
func (r *Rendezvous) Wait() error { return <-r.done }

// Close stops the rendezvous listener.
func (r *Rendezvous) Close() error { return r.ln.Close() }

func (r *Rendezvous) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

func (r *Rendezvous) serve() {
	type member struct {
		conn net.Conn
		addr string
	}
	var members []member
	fail := func(err error) {
		for _, m := range members {
			m.conn.Close()
		}
		r.done <- err
	}
	var window time.Time
	if r.cfg.JoinWindow > 0 {
		window = time.Now().Add(r.cfg.JoinWindow)
	}
	for len(members) < r.size {
		if !window.IsZero() {
			if tl, ok := r.ln.(*net.TCPListener); ok {
				tl.SetDeadline(window)
			}
		}
		conn, err := r.ln.Accept()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				fail(fmt.Errorf("cluster: rendezvous join window %s expired with %d of %d joined (%d rejected)",
					r.cfg.JoinWindow, len(members), r.size, r.rejected.Load()))
				return
			}
			fail(fmt.Errorf("cluster: rendezvous accept: %w", err))
			return
		}
		// Per-join handshake deadline: a stalled or malformed joiner is
		// rejected instead of blocking cluster formation forever.
		conn.SetDeadline(time.Now().Add(r.cfg.JoinIOTimeout))
		addr, err := readHandshake(conn, maxAddrLen)
		if err == nil && (len(addr) == 0 || bytes.IndexByte(addr, '\n') >= 0) {
			err = fmt.Errorf("listen address %q", addr)
		}
		if err != nil {
			conn.Close()
			r.rejected.Add(1)
			r.logf("cluster: rendezvous rejected joiner %s: %v", conn.RemoteAddr(), err)
			continue
		}
		members = append(members, member{conn: conn, addr: string(addr)})
	}
	addrs := make([]string, len(members))
	for i, m := range members {
		addrs[i] = m.addr
	}
	var firstErr error
	for rank, m := range members {
		// Fresh write deadline: the accept-time deadline may have lapsed
		// while later joiners trickled in.
		m.conn.SetDeadline(time.Now().Add(r.cfg.JoinIOTimeout))
		if err := writeHandshake(m.conn, encodeJoinReply(rank, addrs)); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cluster: rendezvous reply to rank %d: %w", rank, err)
		}
		m.conn.Close()
	}
	r.done <- firstErr
}

// TCPNode is one rank of a TCP cluster.
type TCPNode struct {
	rank, size  int
	addrs       []string
	ln          net.Listener
	mbox        *mailbox
	metrics     *Metrics
	obs         *obs.Obs          // node-lifetime instruments (debug endpoint reads these live)
	tc          transportCounters // pre-resolved handles for the send/dial/heartbeat paths
	recvTimeout time.Duration
	jitter      jitterSource
	runs        atomic.Int64
	hb          atomic.Pointer[heartbeat]
	pool        *bufPool

	// fault must be installed before any sends (Run, StartHeartbeat); it
	// is read without locks on the send path.
	fault *FaultPlan

	mu    sync.Mutex
	conns map[int]*peerConn

	closeOnce sync.Once
	closed    chan struct{}
}

// peerConn is the outbound link to one rank: nil conn means
// disconnected (never dialed, or evicted after a write error). ever
// distinguishes a first connect from a reconnect for the transport
// counters.
type peerConn struct {
	mu   sync.Mutex
	conn net.Conn
	fw   frameWriter
	ever bool
}

// transportCounters are the fault-tolerance instruments PR 1's
// machinery reports through: every dial attempt and retry, every
// connection evicted after a write error and every successful redial,
// heartbeat probes and misses, and FaultPlan injections by kind.
type transportCounters struct {
	dialAttempts *obs.Counter // transport.dial.attempts
	dialRetries  *obs.Counter // transport.dial.retries
	evictions    *obs.Counter // transport.evictions
	reconnects   *obs.Counter // transport.reconnects
	hbProbes     *obs.Counter // transport.heartbeat.probes
	hbMisses     *obs.Counter // transport.heartbeat.misses
	faults       faultCounters
}

func newTransportCounters(o *obs.Obs) transportCounters {
	return transportCounters{
		dialAttempts: o.Counter("transport.dial.attempts"),
		dialRetries:  o.Counter("transport.dial.retries"),
		evictions:    o.Counter("transport.evictions"),
		reconnects:   o.Counter("transport.reconnects"),
		hbProbes:     o.Counter("transport.heartbeat.probes"),
		hbMisses:     o.Counter("transport.heartbeat.misses"),
		faults:       newFaultCounters(o),
	}
}

// JoinTCP creates a node: it binds listenAddr (use "127.0.0.1:0" for an
// ephemeral port), registers with the rendezvous at coordAddr, and
// returns once the rank and address table arrive. timeout bounds the
// whole join; within it, dial attempts retry with backoff and jitter,
// so workers may start before the rendezvous is listening.
func JoinTCP(coordAddr, listenAddr string, timeout time.Duration) (*TCPNode, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("cluster: node listen: %w", err)
	}
	rank, addrs, err := register(coordAddr, ln.Addr().String(), timeout)
	if err != nil {
		ln.Close()
		return nil, err
	}
	n := &TCPNode{
		rank:        rank,
		size:        len(addrs),
		addrs:       addrs,
		ln:          ln,
		mbox:        newMailbox(),
		metrics:     &Metrics{},
		obs:         obs.New(),
		recvTimeout: 60 * time.Second,
		conns:       make(map[int]*peerConn),
		closed:      make(chan struct{}),
		pool:        newBufPool(),
	}
	n.obs.Trace.SetRank(rank)
	n.tc = newTransportCounters(n.obs)
	n.jitter.src = xrand.New(seedFromString(ln.Addr().String()) + uint64(rank))
	go n.acceptLoop()
	return n, nil
}

// register sends the rendezvous this node's listen address and returns
// the rank and address table it answers with. With a timeout the dial
// retries until it lapses (the rendezvous may simply not be up yet);
// without one, the attempt cap bounds it.
func register(coordAddr, self string, timeout time.Duration) (int, []string, error) {
	var deadline time.Time
	attempts := dialAttempts
	if timeout > 0 {
		deadline, attempts = time.Now().Add(timeout), math.MaxInt
	}
	jit := &jitterSource{src: xrand.New(seedFromString(self))}
	conn, err := dial(coordAddr, attempts, deadline, jit, nil, transportCounters{})
	if err != nil {
		return 0, nil, fmt.Errorf("cluster: rendezvous: %w", err)
	}
	defer conn.Close()
	if !deadline.IsZero() {
		conn.SetDeadline(deadline)
	}
	if err := writeHandshake(conn, []byte(self)); err != nil {
		return 0, nil, fmt.Errorf("cluster: send join: %w", err)
	}
	reply, err := readHandshake(conn, maxFramePayload)
	rank, addrs := 0, []string(nil)
	if err == nil {
		rank, addrs, err = decodeJoinReply(reply)
	}
	if err != nil {
		return 0, nil, fmt.Errorf("cluster: read join reply: %w", err)
	}
	return rank, addrs, nil
}

// dial connects to addr in at most attempts dials, backing off between
// them, never past deadline (when set); closing stop abandons it.
func dial(addr string, attempts int, deadline time.Time, jit *jitterSource, stop <-chan struct{}, tc transportCounters) (net.Conn, error) {
	err := errors.New("timed out")
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			tc.dialRetries.Inc()
			t := time.NewTimer(jit.backoff(attempt - 1))
			select {
			case <-t.C:
			case <-stop:
				t.Stop()
				return nil, ErrClosed
			}
		}
		d := dialTimeout
		if !deadline.IsZero() {
			if d = min(d, time.Until(deadline)); d <= 0 {
				break
			}
		}
		tc.dialAttempts.Inc()
		var conn net.Conn
		if conn, err = net.DialTimeout("tcp", addr, d); err == nil {
			return conn, nil
		}
	}
	return nil, fmt.Errorf("dial %s: %w", addr, err)
}

// Rank returns this node's rank.
func (n *TCPNode) Rank() int { return n.rank }

// Size returns the cluster size.
func (n *TCPNode) Size() int { return n.size }

// SetRecvTimeout overrides the node's receive timeout (zero disables).
func (n *TCPNode) SetRecvTimeout(d time.Duration) { n.recvTimeout = d }

// Obs returns the node's observability bundle. It lives for the node's
// lifetime — cmd/worker's -debug-addr endpoint serves it live — while
// each Run reports its own delta in RankStats.Obs.
func (n *TCPNode) Obs() *obs.Obs { return n.obs }

// SetLogger installs the node's logger (rank attribute attached here)
// for transport events: evictions, redials, peers declared down.
func (n *TCPNode) SetLogger(l *slog.Logger) {
	if l != nil {
		n.obs.Log = l.With("rank", n.rank)
	}
}

func (n *TCPNode) acceptLoop() {
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			select {
			case <-n.closed:
			default:
				n.mbox.fail(fmt.Errorf("%w: accept: %v", ErrClosed, err))
			}
			return
		}
		go n.readLoop(conn)
	}
}

func (n *TCPNode) readLoop(conn net.Conn) {
	fr := newFrameReader(bufio.NewReader(conn), n.pool, maxFramePayload)
	for {
		msg, err := fr.read()
		if err != nil {
			conn.Close()
			return // peer closed or spoke garbage; pending receives fail via timeout, heartbeat, or node close
		}
		if msg.From >= n.size {
			n.pool.put(msg.Payload)
			continue // malformed peer; never index by it
		}
		if hb := n.hb.Load(); hb != nil {
			if hb.observe(msg.From) {
				// Traffic from a rank previously declared down: a
				// restarted peer. Lift its down marks so elastic
				// re-admission can talk to it again.
				n.obs.Logger().Info("peer revived by inbound traffic", "peer", msg.From)
				n.mbox.revive(msg.From)
			}
		}
		if msg.Tag == heartbeatTag {
			continue // liveness probe, not payload
		}
		if msg.Tag == revokeTag {
			// Epoch revocation (view.go): poison once, mark the dead
			// rank down, and keep the probe out of the payload path.
			if dead, err := decodeRevoke(msg.Payload); err == nil {
				if hb := n.hb.Load(); hb != nil {
					hb.markDown(dead)
				}
				n.mbox.peerDown(dead, &ErrPeerDown{Rank: dead}, true)
			}
			n.pool.put(msg.Payload)
			continue
		}
		// Receive metrics are counted once, in Worker.Recv, exactly as
		// the in-process transport counts them.
		n.mbox.deliver(msg.From, msg.Tag, msg.Payload)
	}
}

// slot returns the (possibly disconnected) outbound link to rank to.
func (n *TCPNode) slot(to int) *peerConn {
	n.mu.Lock()
	defer n.mu.Unlock()
	pc, ok := n.conns[to]
	if !ok {
		pc = &peerConn{}
		n.conns[to] = pc
	}
	return pc
}

// writeTo writes msg on the connection to rank to, dialing it in at
// most attempts dials if there is none. A failed write tears the
// connection down so the next attempt redials. Heartbeat probes make
// one attempt and ignore the error: detection is driven by inbound
// silence, not by probe send errors.
func (n *TCPNode) writeTo(to int, msg *Message, attempts int) error {
	pc := n.slot(to)
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.conn == nil {
		conn, err := dial(n.addrs[to], attempts, time.Time{}, &n.jitter, n.closed, n.tc)
		if err != nil {
			return err
		}
		pc.conn = conn
		if pc.ever {
			n.tc.reconnects.Inc()
			n.obs.Logger().Info("reconnected to peer", "peer", to)
		}
		pc.ever = true
	}
	if err := pc.fw.write(pc.conn, msg); err != nil {
		pc.conn.Close()
		pc.conn = nil
		n.tc.evictions.Inc()
		n.obs.Logger().Warn("peer connection broken, evicting", "peer", to, "err", err)
		return err
	}
	return nil
}

// cutConn force-closes the live connection to rank to (fault
// injection). The dead connection is left in place so the next send
// observes the break and exercises the reconnect path.
func (n *TCPNode) cutConn(to int) {
	pc := n.slot(to)
	pc.mu.Lock()
	if pc.conn != nil {
		pc.conn.Close()
	}
	pc.mu.Unlock()
}

// send is the Worker-level transport: fault injection, self-delivery,
// and reconnect-and-resend over broken connections.
func (n *TCPNode) send(to int, msg Message) error {
	if err := checkFrame(&msg); err != nil {
		return err
	}
	if n.fault != nil {
		if inj := n.fault.decide(msg.From, to, msg.Tag); inj != nil {
			n.tc.faults.note(inj.op)
			switch inj.op {
			case FaultError:
				return inj.err
			case FaultDrop:
				return nil
			case FaultDelay:
				time.Sleep(inj.delay)
			case FaultCut:
				if to != n.rank {
					n.cutConn(to) // the resend loop below must recover
				}
			}
		}
	}
	if to == n.rank {
		// Receive metrics are counted in Worker.Recv, like Local.
		n.mbox.deliver(msg.From, msg.Tag, msg.Payload)
		return nil
	}
	var lastErr error
	for attempt := 0; attempt <= sendResends; attempt++ {
		select {
		case <-n.closed:
			return ErrClosed
		default:
		}
		if hb := n.hb.Load(); hb != nil && hb.isDown(to) {
			return &ErrPeerDown{Rank: to}
		}
		if err := n.writeTo(to, &msg, dialAttempts); err == nil {
			return nil
		} else {
			lastErr = err
		}
	}
	return fmt.Errorf("send to rank %d failed after %d reconnect attempts: %w", to, sendResends, lastErr)
}

// Run executes fn as this node's worker function and returns its stats.
// Unlike Local.Run it drives a single rank; the other ranks run in
// their own processes (or goroutines in tests). Repeated Run calls on
// one node namespace their collective tags by invocation count, so
// back-to-back SPMD phases cannot cross-match — every rank must perform
// the same sequence of Run calls.
func (n *TCPNode) Run(fn func(*Worker) error) (*RunStats, error) {
	epoch := n.runs.Add(1) - 1
	// The node's counters span its lifetime; baselines taken here scope
	// the reported stats to this Run so back-to-back invocations do not
	// bleed into each other.
	base := n.metrics.snapshot()
	obsBase := n.obs.Baseline()
	cfg := workerConfig{
		rank:        n.rank,
		size:        n.size,
		mbox:        n.mbox,
		metrics:     n.metrics,
		base:        base,
		obs:         n.obs,
		recvTimeout: n.recvTimeout,
		sendFn:      n.send,
		bufs:        n.pool,
		poolShared:  false, // the frame writer copies payloads to the socket; senders recycle
	}
	if epoch > 0 {
		cfg.tagEpoch = fmt.Sprintf("e%d|", epoch)
	}
	w := newWorker(cfg)
	start := time.Now()
	err := fn(w)
	snap := n.obs.SnapshotSince(obsBase)
	stats := &RunStats{
		Wall:  time.Since(start),
		Ranks: []RankStats{{Metrics: n.metrics.snapshot().sub(base), Work: *w.work, Obs: &snap}},
	}
	return stats, err
}

// Close shuts the node down: pending receives fail with ErrClosed.
func (n *TCPNode) Close() error {
	var err error
	n.closeOnce.Do(func() {
		close(n.closed)
		err = n.ln.Close()
		n.mu.Lock()
		slots := make([]*peerConn, 0, len(n.conns))
		for _, pc := range n.conns {
			slots = append(slots, pc)
		}
		n.mu.Unlock()
		for _, pc := range slots {
			pc.mu.Lock()
			if pc.conn != nil {
				pc.conn.Close()
			}
			pc.mu.Unlock()
		}
		n.mbox.fail(ErrClosed)
	})
	return err
}
