package cluster

import (
	"math/bits"
	"sync"
)

// bufPool recycles message payload buffers in power-of-two size
// classes, mirroring what mat.Workspace does for the numeric stack: the
// first sweep populates the pool, and from then on the collectives and
// the row exchange encode into recycled buffers with zero steady-state
// heap allocations. The pool is shared by every worker of a transport
// (the in-process transport hands buffers across rank goroutines, so
// the free lists must be common property), hence the mutex.
//
// Ownership follows the message: a buffer obtained with Worker.GetBuf
// belongs to the caller until it is sent with Worker.SendPooled, after
// which exactly one side returns it with Worker.PutBuf — see the
// "communication model" section of DESIGN.md for the per-transport
// rules.
//
// Adoption rule: put keeps a buffer only when its capacity is exactly a
// class size, 1<<c — which every buffer get hands out has, the payloads
// the TCP frame reader receives into included, and a buffer of foreign
// origin (a caller's own Send payload, cap ≈ its length) almost never.
// get(n) looks in class ⌈log₂ n⌉, so a buffer filed anywhere else could
// never be handed back for the length it arrived with; it would only be
// held. Foreign buffers are therefore dropped to the garbage collector:
// PutBuf on them is allowed and does nothing.
type bufPool struct {
	mu      sync.Mutex
	classes [64][][]byte
	gets    int64
	misses  int64
}

// Each size class's free list is bounded twice: by maxClassBytes, so
// that what a burst of large messages leaves behind is a few buffers
// and not 256 of them, and by maxFree, so that the small classes do not
// keep an unbounded number of slice headers. Steady state needs only a
// handful of buffers in flight per rank; buffers released beyond either
// bound are left to the garbage collector.
const (
	maxFree       = 256
	maxClassBytes = 16 << 20
)

func newBufPool() *bufPool { return &bufPool{} }

// sizeClass returns the smallest c with 1<<c >= n (n > 0).
func sizeClass(n int) int { return bits.Len(uint(n - 1)) }

// get returns a buffer of length n (capacity rounded up to the size
// class) and whether it had to be freshly allocated.
func (p *bufPool) get(n int) ([]byte, bool) {
	if n == 0 {
		return nil, false
	}
	c := sizeClass(n)
	p.mu.Lock()
	p.gets++
	if s := p.classes[c]; len(s) > 0 {
		b := s[len(s)-1]
		s[len(s)-1] = nil
		p.classes[c] = s[:len(s)-1]
		p.mu.Unlock()
		return b[:n], false
	}
	p.misses++
	p.mu.Unlock()
	return make([]byte, n, 1<<c), true
}

// put returns a buffer to its size class, under the adoption rule and
// the per-class bounds above.
func (p *bufPool) put(b []byte) {
	n := cap(b)
	if n == 0 || n&(n-1) != 0 {
		return
	}
	c := bits.Len(uint(n)) - 1
	p.mu.Lock()
	if held := len(p.classes[c]); held < maxFree && (held+1)<<c <= maxClassBytes {
		p.classes[c] = append(p.classes[c], b[:0])
	}
	p.mu.Unlock()
}

// stats reports lifetime get and miss counts (tests assert steady-state
// misses stay flat).
func (p *bufPool) stats() (gets, misses int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gets, p.misses
}

// retained reports what the free lists hold right now (tests assert it
// stays bounded and flat).
func (p *bufPool) retained() (bufs int, bytes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for c, s := range p.classes {
		bufs += len(s)
		bytes += int64(len(s)) << c
	}
	return bufs, bytes
}
