package cluster

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Fault injection. A FaultPlan is a deterministic schedule of message
// faults shared by both transports: every send is assigned a sequence
// number on its (from, to) pair, and the first rule matching
// (from, to, tag, seq) decides the message's fate. Chaos tests use it
// to reproduce exact failure interleavings — a dropped Gram reduction
// on sweep three, a cut connection on the fifth row exchange — without
// sleeps or real network flakiness.

// AnyRank in a FaultRule's From or To field matches every rank.
const AnyRank = -1

// FaultOp is the kind of fault a FaultRule injects.
type FaultOp int

const (
	// FaultError fails the send with the rule's Err (or a descriptive
	// default). The message is not delivered.
	FaultError FaultOp = iota
	// FaultDrop silently discards the message: the sender sees success,
	// the receiver sees nothing — a lost packet.
	FaultDrop
	// FaultDelay delays delivery by the rule's Delay, then delivers.
	FaultDelay
	// FaultCut breaks the live TCP connection to the destination before
	// the send, so the message's write fails and the transport's
	// reconnect-and-resend path must recover. The in-process transport
	// (and a TCP self-send, which has no connection) treats it as a
	// recovered transient: the message is delivered normally.
	FaultCut
)

// String names the op for logs and error messages.
func (op FaultOp) String() string {
	switch op {
	case FaultError:
		return "error"
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case FaultCut:
		return "cut"
	}
	return fmt.Sprintf("FaultOp(%d)", int(op))
}

// FaultRule matches a window of sends and injects one fault kind.
// From/To select the link (AnyRank wildcards), TagPrefix restricts the
// message stream ("" matches all tags), and [FirstSeq, LastSeq] bounds
// the per-(from, to) send ordinal (0-based, counting every send on the
// pair): LastSeq == 0 means exactly FirstSeq, LastSeq < 0 means every
// send from FirstSeq on.
type FaultRule struct {
	From, To  int
	TagPrefix string
	FirstSeq  int
	LastSeq   int
	Op        FaultOp
	Delay     time.Duration // FaultDelay only
	Err       error         // FaultError only; nil gets a default
}

func (r *FaultRule) matches(from, to int, tag string, seq int) bool {
	if r.From != AnyRank && r.From != from {
		return false
	}
	if r.To != AnyRank && r.To != to {
		return false
	}
	if r.TagPrefix != "" && !strings.HasPrefix(tag, r.TagPrefix) {
		return false
	}
	last := r.LastSeq
	if last == 0 {
		last = r.FirstSeq
	}
	return seq >= r.FirstSeq && (last < 0 || seq <= last)
}

// injection is a resolved fault decision for one send.
type injection struct {
	op    FaultOp
	delay time.Duration
	err   error
}

// FaultPlan holds an ordered rule list plus the per-pair sequence
// counters. Install one with Local.SetFaultPlan or TCPNode.SetFaultPlan
// before running; it is safe for concurrent use by all senders.
type FaultPlan struct {
	mu    sync.Mutex
	rules []FaultRule
	seq   map[[2]int]int
	fired map[FaultOp]int
}

// NewFaultPlan returns a plan injecting the given rules, in order.
func NewFaultPlan(rules ...FaultRule) *FaultPlan {
	return &FaultPlan{rules: rules, seq: make(map[[2]int]int), fired: make(map[FaultOp]int)}
}

// FiredOp returns how many faults of one kind have been injected.
func (p *FaultPlan) FiredOp(op FaultOp) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fired[op]
}

// decide consumes one send slot on the (from, to) pair and returns the
// resolved fault, or nil for a clean send.
func (p *FaultPlan) decide(from, to int, tag string) *injection {
	p.mu.Lock()
	defer p.mu.Unlock()
	seq := p.seq[[2]int{from, to}]
	p.seq[[2]int{from, to}] = seq + 1
	for i := range p.rules {
		r := &p.rules[i]
		if !r.matches(from, to, tag, seq) {
			continue
		}
		p.fired[r.Op]++
		inj := &injection{op: r.Op, delay: r.Delay, err: r.Err}
		if inj.err == nil {
			inj.err = fmt.Errorf("cluster: injected %s fault from %d to %d tag %q seq %d", r.Op, from, to, tag, seq)
		}
		return inj
	}
	return nil
}
