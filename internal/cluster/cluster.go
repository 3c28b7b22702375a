package cluster

import (
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"dismastd/internal/obs"
)

// Metrics counts one rank's traffic. Counters are atomic because a
// rank's receive counters are bumped by the sending side's goroutine in
// the in-process transport.
type Metrics struct {
	BytesSent, BytesRecv int64
	MsgsSent, MsgsRecv   int64
}

func (m *Metrics) addSent(n int64) { atomic.AddInt64(&m.BytesSent, n); atomic.AddInt64(&m.MsgsSent, 1) }
func (m *Metrics) addRecvd(n int64) {
	atomic.AddInt64(&m.BytesRecv, n)
	atomic.AddInt64(&m.MsgsRecv, 1)
}

// snapshot returns a plain copy safe to read after Run completes.
func (m *Metrics) snapshot() Metrics {
	return Metrics{
		BytesSent: atomic.LoadInt64(&m.BytesSent),
		BytesRecv: atomic.LoadInt64(&m.BytesRecv),
		MsgsSent:  atomic.LoadInt64(&m.MsgsSent),
		MsgsRecv:  atomic.LoadInt64(&m.MsgsRecv),
	}
}

// sub returns m − base, counter-wise. A long-lived TCPNode's counters
// span every Run; subtracting the Run-entry baseline scopes them to one
// invocation.
func (m Metrics) sub(base Metrics) Metrics {
	return Metrics{
		BytesSent: m.BytesSent - base.BytesSent,
		BytesRecv: m.BytesRecv - base.BytesRecv,
		MsgsSent:  m.MsgsSent - base.MsgsSent,
		MsgsRecv:  m.MsgsRecv - base.MsgsRecv,
	}
}

// RankStats is one rank's contribution to a run: traffic plus the work
// units the worker recorded with AddWork (the simtime cost model's
// compute input) and, when the transport carries instrumentation, the
// rank's observability snapshot for the run (metric deltas, per-phase
// timings, retained spans).
type RankStats struct {
	Metrics
	Work float64
	Obs  *obs.RankSnapshot
}

// RunStats aggregates a completed run.
type RunStats struct {
	Ranks []RankStats
	Wall  time.Duration
}

// TotalBytes returns the bytes sent across all ranks.
func (s *RunStats) TotalBytes() int64 {
	var t int64
	for _, r := range s.Ranks {
		t += r.BytesSent
	}
	return t
}

// TotalMessages returns the messages sent across all ranks.
func (s *RunStats) TotalMessages() int64 {
	var t int64
	for _, r := range s.Ranks {
		t += r.MsgsSent
	}
	return t
}

// Worker is one rank's handle inside a running cluster: point-to-point
// messaging, collectives (collectives.go), pooled payload
// buffers, and work accounting. A Worker is used only by the goroutine
// executing its worker function.
type Worker struct {
	rank, size  int
	mbox        *mailbox
	sendFn      func(to int, msg Message) error
	metrics     *Metrics
	base        Metrics  // metrics at Run entry; snapshots report the delta
	obs         *obs.Obs // per-rank (Local) or per-node (TCP) instruments; may be nil
	recvTimeout time.Duration
	coll        uint64 // collective sequence number; see collectives.go
	tagEpoch    string // namespaces tags across repeated TCPNode.Run calls
	tagBuf      []byte // reusable scratch for nextTag
	streams     map[streamKey]string
	bufs        *bufPool
	poolShared  bool // receiver returns pooled sends (Local); else sender recycles (TCP)
	scalar      [1]float64
	cc          commCounters
	work        *float64 // shared with derived view workers (view.go)
	pending     []int    // Round's not-yet-heard peers (membership.go)

	// Elastic view mapping (view.go). world is nil on a root worker
	// (rank == world rank, the identity the static hot path takes with
	// zero overhead); on a view worker world[viewRank] is the underlying
	// world rank and worldSelf is this worker's own world rank, which is
	// what travels in Message.From so mailboxes and heartbeats stay
	// world-keyed across view changes.
	world        []int
	worldSelf    int
	worldScratch []int
}

// workerConfig collects what a transport must supply to assemble a
// Worker; both transports funnel through newWorker so the comm-layer
// state (buffer pool, stream-tag cache, instrument handles) stays in
// one place.
type workerConfig struct {
	rank, size  int
	mbox        *mailbox
	sendFn      func(to int, msg Message) error
	metrics     *Metrics
	base        Metrics
	obs         *obs.Obs
	recvTimeout time.Duration
	tagEpoch    string
	bufs        *bufPool
	poolShared  bool
}

func newWorker(cfg workerConfig) *Worker {
	return &Worker{
		rank:        cfg.rank,
		size:        cfg.size,
		mbox:        cfg.mbox,
		sendFn:      cfg.sendFn,
		metrics:     cfg.metrics,
		base:        cfg.base,
		obs:         cfg.obs,
		recvTimeout: cfg.recvTimeout,
		tagEpoch:    cfg.tagEpoch,
		streams:     make(map[streamKey]string),
		bufs:        cfg.bufs,
		poolShared:  cfg.poolShared,
		cc:          newCommCounters(cfg.obs),
		work:        new(float64),
		worldSelf:   cfg.rank,
	}
}

// commCounters are the pre-resolved comm-layer instruments every worker
// bumps on its hot path (resolving by name per call would cost a map
// lookup per collective).
type commCounters struct {
	poolGets   *obs.Counter // comm.pool.gets — pooled buffer requests
	poolMisses *obs.Counter // comm.pool.misses — requests that had to allocate
}

func newCommCounters(o *obs.Obs) commCounters {
	return commCounters{
		poolGets:   o.Counter("comm.pool.gets"),
		poolMisses: o.Counter("comm.pool.misses"),
	}
}

// Rank returns this worker's rank in [0, Size()).
func (w *Worker) Rank() int { return w.rank }

// Size returns the number of workers in the cluster.
func (w *Worker) Size() int { return w.size }

// AddWork records abstract work units (the distributed algorithms count
// floating-point operations). Single-goroutine by construction; view
// workers share the root worker's accumulator so RunStats sees the
// whole run's work whatever the membership history.
func (w *Worker) AddWork(units float64) { *w.work += units }

// MetricsSnapshot returns the worker's traffic counters accumulated
// since its Run began (a delta for long-lived TCP nodes). Jobs use it
// to separate algorithm traffic from one-time result collection.
func (w *Worker) MetricsSnapshot() Metrics { return w.metrics.snapshot().sub(w.base) }

// Obs returns the worker's observability bundle — the handle algorithm
// code resolves counters and spans through. May return nil (no
// instrumentation); all obs handles are nil-safe.
func (w *Worker) Obs() *obs.Obs { return w.obs }

// worldOf maps a view rank to the underlying world rank (identity on a
// root worker).
func (w *Worker) worldOf(rank int) int {
	if w.world == nil {
		return rank
	}
	return w.world[rank]
}

// Send delivers payload to rank `to` under the given tag. Sending to
// yourself is allowed and loops back through the mailbox.
func (w *Worker) Send(to int, tag string, payload []byte) error {
	if to < 0 || to >= w.size {
		return fmt.Errorf("cluster: send to invalid rank %d of %d", to, w.size)
	}
	msg := Message{From: w.worldSelf, Tag: tag, Payload: payload}
	if err := w.sendFn(w.worldOf(to), msg); err != nil {
		return fmt.Errorf("cluster: rank %d send to %d tag %q: %w", w.rank, to, tag, err)
	}
	w.metrics.addSent(wireSize(tag, payload))
	return nil
}

// Recv blocks until a message from rank `from` with the given tag
// arrives, subject to the cluster's receive timeout.
func (w *Worker) Recv(from int, tag string) ([]byte, error) {
	if from < 0 || from >= w.size {
		return nil, fmt.Errorf("cluster: recv from invalid rank %d of %d", from, w.size)
	}
	payload, err := w.mbox.recv(w.worldOf(from), tag, w.recvTimeout)
	if err != nil {
		return nil, fmt.Errorf("cluster: rank %d recv from %d tag %q: %w", w.rank, from, tag, err)
	}
	w.metrics.addRecvd(wireSize(tag, payload))
	return payload, nil
}

// RecvAny blocks until a message with the given tag arrives from any of
// the listed ranks and returns the index into `from` of the sender plus
// its payload. It is the arrival-order receive the gather and row
// exchange use to avoid head-of-line blocking on one slow peer: the
// caller holds the pending-sender set, removes the returned entry, and
// calls again — taking only the FIFO head per sender guarantees a peer
// running ahead into the next operation on the same stream is consumed
// at most once per round.
func (w *Worker) RecvAny(tag string, from []int) (int, []byte, error) {
	return w.recvAny(tag, from, true)
}

// recvAny backs RecvAny. With failDown false it serves control-plane
// receives that want *any live* sender: candidates marked down are
// skipped instead of failing the receive, which only errors once every
// candidate is down (or on a timeout / mailbox poison). Joiners
// awaiting adoption receive so, because they cannot know which world
// ranks have died while they idled.
func (w *Worker) recvAny(tag string, from []int, failDown bool) (int, []byte, error) {
	cand, err := w.worldCandidates(from)
	if err != nil {
		return -1, nil, err
	}
	i, payload, err := w.mbox.recvAny(tag, cand, w.recvTimeout, failDown)
	if err != nil {
		return -1, nil, fmt.Errorf("cluster: rank %d recv-any tag %q: %w", w.rank, tag, err)
	}
	w.metrics.addRecvd(wireSize(tag, payload))
	return i, payload, nil
}

// worldCandidates validates a candidate rank list and maps it to world
// ranks, reusing the worker's scratch slice on the view path so the
// steady-state exchange stays allocation-free.
func (w *Worker) worldCandidates(from []int) ([]int, error) {
	if len(from) == 0 {
		return nil, fmt.Errorf("cluster: recv-any with no candidate ranks")
	}
	for _, f := range from {
		if f < 0 || f >= w.size {
			return nil, fmt.Errorf("cluster: recv-any from invalid rank %d of %d", f, w.size)
		}
	}
	if w.world == nil {
		return from, nil
	}
	w.worldScratch = w.worldScratch[:0]
	for _, f := range from {
		w.worldScratch = append(w.worldScratch, w.world[f])
	}
	return w.worldScratch, nil
}

// GetBuf returns a pooled payload buffer of length n. The buffer
// belongs to the caller until handed to SendPooled or returned with
// PutBuf.
func (w *Worker) GetBuf(n int) []byte {
	b, missed := w.bufs.get(n)
	w.cc.poolGets.Inc()
	if missed {
		w.cc.poolMisses.Inc()
	}
	return b
}

// PutBuf returns a payload buffer to the transport's pool. Receivers
// call it once they have decoded a payload — a TCP receive is a pooled
// buffer too; a buffer of foreign origin is left to the garbage
// collector.
func (w *Worker) PutBuf(b []byte) { w.bufs.put(b) }

// SendPooled sends a buffer obtained from GetBuf and transfers its
// ownership to the message: on the in-process transport the payload is
// delivered by reference and the receiving rank recycles it (the pool
// is shared across ranks), while on TCP the frame writer copies the
// bytes to the socket synchronously, so the buffer is recycled here at
// once.
// Self-sends loop through the local mailbox on both transports and are
// recycled by the receiving code path. Either way the caller must not
// touch buf after the call.
func (w *Worker) SendPooled(to int, tag string, buf []byte) error {
	err := w.Send(to, tag, buf)
	if !w.poolShared && to != w.rank {
		w.bufs.put(buf)
	}
	return err
}

// Local is an in-process cluster: M workers as goroutines delivering
// messages through shared-memory mailboxes, with the same accounting
// the TCP transport performs. It is the substrate for the experiment
// harness — see DESIGN.md for how simtime turns its measurements into
// cluster-scale time estimates.
type Local struct {
	size        int
	recvTimeout time.Duration
	fault       *FaultPlan
	obs         *obs.Obs // cluster-level transport instruments (fault counters)
	fc          faultCounters
	logger      *slog.Logger
	pool        *bufPool
	elastic     bool
}

// faultCounters are the pre-resolved injection counters both transports
// bump when a FaultPlan rule fires, indexed by op so chaos tests can
// assert exactly which faults the transport observed.
type faultCounters struct {
	injected *obs.Counter
	byOp     [4]*obs.Counter // FaultError, FaultDrop, FaultDelay, FaultCut
}

func newFaultCounters(o *obs.Obs) faultCounters {
	return faultCounters{
		injected: o.Counter("transport.faults.injected"),
		byOp: [4]*obs.Counter{
			o.Counter("transport.faults.error"),
			o.Counter("transport.faults.drop"),
			o.Counter("transport.faults.delay"),
			o.Counter("transport.faults.cut"),
		},
	}
}

func (f faultCounters) note(op FaultOp) {
	f.injected.Inc()
	if int(op) >= 0 && int(op) < len(f.byOp) {
		f.byOp[op].Inc()
	}
}

// NewLocal returns an in-process cluster of the given size with a
// 30-second receive timeout.
func NewLocal(size int) *Local {
	if size <= 0 {
		panic(fmt.Sprintf("cluster: NewLocal(%d)", size))
	}
	c := &Local{
		size:        size,
		recvTimeout: 30 * time.Second,
		obs:         obs.New(),
		pool:        newBufPool(),
	}
	c.fc = newFaultCounters(c.obs)
	return c
}

// SetRecvTimeout overrides the receive timeout (zero disables it).
func (c *Local) SetRecvTimeout(d time.Duration) { c.recvTimeout = d }

// Obs returns the cluster-level observability bundle: transport events
// that belong to the cluster rather than one rank (fault injections).
// Per-rank instruments live on each run's Workers and surface through
// RankStats.Obs.
func (c *Local) Obs() *obs.Obs { return c.obs }

// SetLogger installs the base logger cloned (with a rank attribute)
// into every worker's bundle. Must be called before Run.
func (c *Local) SetLogger(l *slog.Logger) { c.logger = l }

// SetFaultPlan installs a deterministic fault schedule applied to every
// send. FaultCut has no connection to break in-process; like a
// recovered TCP cut, the message is delivered.
func (c *Local) SetFaultPlan(p *FaultPlan) { c.fault = p }

// SetElastic switches Run to elastic failure semantics, matching what a
// TCP deployment's heartbeats provide: a worker function returning —
// with or without an error — marks its rank down in every other
// mailbox (drain-then-fail), instead of an error poisoning the whole
// cluster. Survivors observe the exit as a rank-attributed ErrPeerDown
// on their next receive from it and can run the membership protocol;
// a returned error is still recorded and returned by Run. Chaos tests
// simulate a crash by returning nil mid-algorithm. Must be set before
// Run.
func (c *Local) SetElastic(on bool) { c.elastic = on }

// Size returns the number of workers the cluster runs.
func (c *Local) Size() int { return c.size }

// Run executes fn once per rank concurrently and waits for all ranks.
// The first error poisons every mailbox so blocked receives fail fast,
// and is returned after all goroutines exit. Statistics are valid even
// on error.
func (c *Local) Run(fn func(*Worker) error) (*RunStats, error) {
	mboxes := make([]*mailbox, c.size)
	metrics := make([]*Metrics, c.size)
	for i := range mboxes {
		mboxes[i] = newMailbox()
		metrics[i] = &Metrics{}
	}
	workers := make([]*Worker, c.size)
	for i := range workers {
		rank := i
		ro := obs.New()
		ro.Trace.SetRank(rank)
		if c.logger != nil {
			ro.Log = c.logger.With("rank", rank)
		}
		workers[i] = newWorker(workerConfig{
			rank:        rank,
			size:        c.size,
			mbox:        mboxes[rank],
			metrics:     metrics[rank],
			obs:         ro,
			recvTimeout: c.recvTimeout,
			bufs:        c.pool,
			poolShared:  true,
			sendFn: func(to int, msg Message) error {
				if msg.Tag == revokeTag {
					// Epoch revocation is control-plane: it bypasses
					// fault injection and acts on the mailbox directly,
					// mirroring the TCP readLoop's interception.
					dead, err := decodeRevoke(msg.Payload)
					if err != nil {
						return err
					}
					mboxes[to].peerDown(dead, &ErrPeerDown{Rank: dead}, true)
					return nil
				}
				if c.fault != nil {
					if inj := c.fault.decide(msg.From, to, msg.Tag); inj != nil {
						c.fc.note(inj.op)
						switch inj.op {
						case FaultError:
							return inj.err
						case FaultDrop:
							return nil
						case FaultDelay:
							time.Sleep(inj.delay)
						}
					}
				}
				mboxes[to].deliver(msg.From, msg.Tag, msg.Payload)
				return nil
			},
		})
	}

	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for i := range workers {
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			err := fn(w)
			if c.elastic {
				// Elastic semantics: any exit — crash simulation, drain,
				// or normal completion — reads as this rank going dark.
				// Drain-then-fail delivery means finished peers' queued
				// messages still land, so normal completion is unharmed.
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("rank %d: %w", w.rank, err)
					}
					mu.Unlock()
				}
				for r, mb := range mboxes {
					if r != w.rank {
						mb.peerDown(w.rank, &ErrPeerDown{Rank: w.rank}, false)
					}
				}
				return
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("rank %d: %w", w.rank, err)
				}
				mu.Unlock()
				for _, mb := range mboxes {
					mb.fail(fmt.Errorf("%w: rank %d failed: %v", ErrClosed, w.rank, err))
				}
			}
		}(workers[i])
	}
	wg.Wait()

	stats := &RunStats{Wall: time.Since(start)}
	for i, w := range workers {
		snap := w.obs.Snapshot()
		stats.Ranks = append(stats.Ranks, RankStats{Metrics: metrics[i].snapshot(), Work: *w.work, Obs: &snap})
	}
	return stats, firstErr
}
