package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"
)

// ErrTimeout reports a receive that waited longer than the worker's
// receive timeout — usually a deadlocked or crashed peer.
var ErrTimeout = errors.New("cluster: receive timed out")

// ErrClosed reports an operation on a TCP node that has been shut down
// or whose listener failed.
var ErrClosed = errors.New("cluster: closed")

type mailKey struct {
	from int
	tag  string
}

// msgQueue is one (sender, tag) FIFO. Popped slots are nil'd out and
// the backing array is compacted and reused across drain cycles, so
// steady-state traffic never reallocates.
type msgQueue struct {
	buf  [][]byte
	head int
}

func (q *msgQueue) push(p []byte) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		for i := n; i < len(q.buf); i++ {
			q.buf[i] = nil
		}
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, p)
}

func (q *msgQueue) pop() []byte {
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	return p
}

func (q *msgQueue) empty() bool { return q.head == len(q.buf) }

// mailbox demultiplexes incoming messages into per-(sender, tag) FIFO
// queues so a worker can wait for exactly the message it needs
// regardless of arrival interleaving. Queues drained empty go back to a
// spare list (and lose their map entry), so one-shot counter tags do
// not leak memory while the recurring stream tags cycle through the
// same queue structs allocation-free.
//
// Receives are single-consumer by the Worker contract (one goroutine
// per rank); deliveries may come from any goroutine.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[mailKey]*msgQueue
	spare  []*msgQueue
	timer  *time.Timer // persistent wake-up timer for bounded receives
	err    error

	// down marks individual senders as dead with drain-then-fail
	// semantics: messages a sender queued before dying are still
	// delivered, and only once its queue is empty does a receive from it
	// fail with the recorded error. This is what lets an elastic view
	// change consume the tail of a dead rank's traffic instead of
	// discarding it.
	down map[int]error

	// revoked remembers which dead ranks have already poisoned this
	// mailbox once, making epoch revocation idempotent: after a survivor
	// clears the poison to run the membership protocol, a straggler's
	// duplicate revoke for the same dead rank must not poison it again.
	revoked map[int]bool

	// members are the world ranks of the view this rank runs, set when a
	// ViewWorker is derived; nil means the whole world. Only a member's
	// silence is a fault to the TCP heartbeat detector.
	members []int
}

// newMailbox returns an empty mailbox with room to mark every one of
// peers senders down without growing.
func newMailbox(peers int) *mailbox {
	m := &mailbox{queues: make(map[mailKey]*msgQueue), down: make(map[int]error, peers)}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// deliver appends a message; it never blocks.
func (m *mailbox) deliver(from int, tag string, payload []byte) {
	m.mu.Lock()
	k := mailKey{from, tag}
	q := m.queues[k]
	if q == nil {
		if n := len(m.spare); n > 0 {
			q = m.spare[n-1]
			m.spare[n-1] = nil
			m.spare = m.spare[:n-1]
		} else {
			q = &msgQueue{}
		}
		m.queues[k] = q
	}
	q.push(payload)
	m.mu.Unlock()
	m.cond.Broadcast()
}

// fail poisons the mailbox: every pending and future receive returns err.
func (m *mailbox) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	m.mu.Unlock()
	m.cond.Broadcast()
}

// peerDown marks one sender dead. Receives from it drain its remaining
// queued messages, then fail with err. With poison set the whole
// mailbox is additionally poisoned — but at most once per dead rank
// (see revoked), so duplicate revocations arriving after clearPoison
// cannot re-poison a recovering worker mid-protocol.
func (m *mailbox) peerDown(rank int, err error, poison bool) {
	m.mu.Lock()
	if _, dup := m.down[rank]; !dup {
		m.down[rank] = err
	}
	if poison {
		if m.revoked == nil {
			m.revoked = make(map[int]bool)
		}
		if !m.revoked[rank] {
			m.revoked[rank] = true
			if m.err == nil {
				m.err = err
			}
		}
	}
	m.mu.Unlock()
	m.cond.Broadcast()
}

// revive clears a sender's down mark (and its revocation memory) after
// the rank demonstrably came back — a restarted TCP peer whose traffic
// is flowing again, or a world slot re-admitted to a view.
func (m *mailbox) revive(rank int) {
	m.mu.Lock()
	delete(m.down, rank)
	delete(m.revoked, rank)
	m.mu.Unlock()
}

// setView records the members of the view this rank now runs.
func (m *mailbox) setView(members []int) {
	m.mu.Lock()
	m.members = members
	m.mu.Unlock()
}

// isMember reports whether a world rank belongs to the view this rank
// runs (every rank does before a view is set).
func (m *mailbox) isMember(rank int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.members == nil || slices.Contains(m.members, rank)
}

// clearPoison removes a whole-mailbox poison so the elastic recovery
// protocol can reuse the transport. Per-sender down marks persist:
// receives from dead ranks keep failing fast after the clear.
func (m *mailbox) clearPoison() {
	m.mu.Lock()
	m.err = nil
	m.mu.Unlock()
}

// downErr reports the drain-then-fail error for a sender: non-nil only
// when the sender is marked down AND its (from, tag) queue is empty.
// Caller holds mu.
func (m *mailbox) downErr(from int, tag string) error {
	err := m.down[from]
	if err == nil {
		return nil
	}
	if q := m.queues[mailKey{from, tag}]; q != nil && !q.empty() {
		return nil
	}
	return err
}

// take pops the queue's head and recycles the queue once drained.
// Caller holds mu.
func (m *mailbox) take(k mailKey, q *msgQueue) []byte {
	p := q.pop()
	if q.empty() {
		delete(m.queues, k)
		q.buf = q.buf[:0]
		q.head = 0
		m.spare = append(m.spare, q)
	}
	return p
}

// wake is the timer callback; broadcasting without the lock is safe.
func (m *mailbox) wake() { m.cond.Broadcast() }

// arm starts (or restarts) the mailbox's shared timeout timer. One
// timer suffices because receives are single-consumer. Caller holds mu.
func (m *mailbox) arm(timeout time.Duration) {
	if m.timer == nil {
		m.timer = time.AfterFunc(timeout, m.wake)
	} else {
		m.timer.Reset(timeout)
	}
}

// recv waits for a message from the given sender and tag, up to the
// timeout (no timeout when zero). The shared timer wakes the condition
// variable so timeouts fire even with no traffic.
func (m *mailbox) recv(from int, tag string, timeout time.Duration) ([]byte, error) {
	k := mailKey{from, tag}
	m.mu.Lock()
	defer m.mu.Unlock()
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
		m.arm(timeout)
		defer m.timer.Stop()
	}
	for {
		if q := m.queues[k]; q != nil && !q.empty() {
			return m.take(k, q), nil
		}
		if m.err != nil {
			return nil, m.err
		}
		if err := m.downErr(from, tag); err != nil {
			return nil, err
		}
		if timeout > 0 && time.Now().After(deadline) {
			return nil, fmt.Errorf("%w: from %d tag %q", ErrTimeout, from, tag)
		}
		m.cond.Wait()
	}
}

// recvAny waits for a message carrying the tag from any of the listed
// senders, returning the index into `from` of the sender whose message
// was taken. When several senders have queued messages the lowest index
// wins; only the head of each sender's FIFO is eligible, so a sender
// running ahead into the next operation on the same stream cannot be
// consumed twice in one round.
//
// failDown selects how per-sender down marks surface. When true (the
// collective/exchange contract, which needs *all* listed senders) any
// drained-and-down candidate fails the receive immediately with its
// rank-attributed error rather than letting the caller hang until
// timeout. When false (a control receive wanting *any live* sender,
// e.g. a joiner awaiting adoption) down candidates are skipped and the
// receive fails only once every candidate is down.
func (m *mailbox) recvAny(tag string, from []int, timeout time.Duration, failDown bool) (int, []byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
		m.arm(timeout)
		defer m.timer.Stop()
	}
	for {
		for i, f := range from {
			k := mailKey{f, tag}
			if q := m.queues[k]; q != nil && !q.empty() {
				return i, m.take(k, q), nil
			}
		}
		if m.err != nil {
			return -1, nil, m.err
		}
		downCount := 0
		var firstDown error
		for _, f := range from {
			if err := m.downErr(f, tag); err != nil {
				downCount++
				if firstDown == nil {
					firstDown = err
				}
			}
		}
		if firstDown != nil && (failDown || downCount == len(from)) {
			return -1, nil, firstDown
		}
		if timeout > 0 && time.Now().After(deadline) {
			return -1, nil, fmt.Errorf("%w: any of %v tag %q", ErrTimeout, from, tag)
		}
		m.cond.Wait()
	}
}
