// Package par is the shared-memory parallel runtime the numeric stack
// runs on: a persistent goroutine pool sized by a Threads config and a
// ParallelFor over statically chunked index ranges.
//
// Design rules (see DESIGN.md "Concurrency model"):
//
//   - Chunking is static. A region is split into at most Threads()
//     contiguous chunks decided before any work starts; chunk i always
//     runs as thread id i. Nothing about the split depends on timing,
//     so the set of (chunk, tid) pairs — and therefore every
//     per-thread scratch buffer and every floating-point operation
//     order — is a pure function of (n, threads).
//   - Deterministic reduction. Kernels that must reproduce the
//     sequential seed bit-for-bit partition their OUTPUT elements
//     (rows, matrix entries) across chunks and keep the per-element
//     accumulation order unchanged; they never split one accumulator
//     into per-chunk partials.
//   - The steady state allocates nothing. Work is described by the
//     Body interface rather than closures, dispatch passes value
//     structs over pre-allocated 1-buffered channels, and the pool
//     owns no per-call state. Callers keep their Body implementations
//     alive across calls (e.g. as fields of an iteration struct).
//
// A nil *Pool is valid and means "sequential": every method runs the
// whole range inline on the caller with tid 0. New(threads<=1) returns
// nil, so single-threaded configurations pay no dispatch cost and
// execute exactly the pre-refactor code path.
//
// A Pool is owned by one driving goroutine: For and ForChunks must not
// be called concurrently with each other. (Distinct pools are
// independent; each cluster worker owns its own.)
package par

import "sync"

// Body is one parallel region's work. RunChunk processes indices
// [lo, hi) as thread tid; tid is in [0, Threads()) and is stable for
// the chunk, so it can index per-thread scratch (one workspace per
// thread). Implementations must only touch output elements owned by
// their chunk.
type Body interface {
	RunChunk(lo, hi, tid int)
}

// call is one dispatched chunk. It is sent by value, so dispatch does
// not allocate.
type call struct {
	body   Body
	lo, hi int
	tid    int
}

// Pool is a persistent pool of threads-1 worker goroutines plus the
// calling goroutine, which always executes chunk 0. Workers live until
// Close; each owns a 1-buffered lane channel so dispatching a region
// never blocks on scheduling.
type Pool struct {
	threads int
	lanes   []chan call
	wg      sync.WaitGroup
}

// New returns a pool that runs regions on `threads` OS-scheduled
// goroutines (the caller plus threads-1 persistent workers). threads
// <= 1 returns nil, the valid sequential pool.
func New(threads int) *Pool {
	if threads <= 1 {
		return nil
	}
	p := &Pool{threads: threads, lanes: make([]chan call, threads-1)}
	for i := range p.lanes {
		ch := make(chan call, 1)
		p.lanes[i] = ch
		go p.work(ch)
	}
	return p
}

func (p *Pool) work(ch <-chan call) {
	for c := range ch {
		c.body.RunChunk(c.lo, c.hi, c.tid)
		p.wg.Done()
	}
}

// Threads reports the number of concurrent chunks a region is split
// into. It is 1 for a nil (sequential) pool.
func (p *Pool) Threads() int {
	if p == nil {
		return 1
	}
	return p.threads
}

// Close shuts the worker goroutines down. The pool must be idle; a nil
// pool is a no-op. Close must be called exactly once on a non-nil pool.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	for _, ch := range p.lanes {
		close(ch)
	}
}

// For runs body over [0, n) split into Threads() contiguous chunks of
// near-equal length (chunk i is [i*n/t, (i+1)*n/t)). Chunk i runs as
// tid i; the caller executes chunk 0 and For returns when every chunk
// has finished. A nil pool, t==1, or n<=1 runs the whole range inline.
func (p *Pool) For(n int, body Body) {
	if n <= 0 {
		return
	}
	t := p.Threads()
	if t == 1 || n == 1 {
		body.RunChunk(0, n, 0)
		return
	}
	for i := t - 1; i >= 1; i-- {
		lo, hi := i*n/t, (i+1)*n/t
		if lo == hi {
			continue
		}
		p.wg.Add(1)
		p.lanes[i-1] <- call{body: body, lo: lo, hi: hi, tid: i}
	}
	if hi := n / t; hi > 0 {
		body.RunChunk(0, hi, 0)
	}
	p.wg.Wait()
}

// ForChunks runs body over a pre-computed chunk grid: starts holds
// len(starts)-1 contiguous chunk boundaries (chunk i is
// [starts[i], starts[i+1])), as produced by nnz-balanced chunking of
// row-grouped views. Chunk i runs as tid i, so len(starts)-1 must not
// exceed Threads(); the caller executes chunk 0. Empty chunks are
// skipped. A nil pool runs [starts[0], starts[last]) inline as one
// chunk, which for contiguous grids is the sequential kernel.
func (p *Pool) ForChunks(starts []int32, body Body) {
	c := len(starts) - 1
	if c <= 0 || int(starts[c]) == int(starts[0]) {
		return
	}
	t := p.Threads()
	if t == 1 || c == 1 {
		body.RunChunk(int(starts[0]), int(starts[c]), 0)
		return
	}
	if c > t {
		panic("par: more chunks than pool threads")
	}
	for i := c - 1; i >= 1; i-- {
		lo, hi := int(starts[i]), int(starts[i+1])
		if lo == hi {
			continue
		}
		p.wg.Add(1)
		p.lanes[i-1] <- call{body: body, lo: lo, hi: hi, tid: i}
	}
	if lo, hi := int(starts[0]), int(starts[1]); lo < hi {
		body.RunChunk(lo, hi, 0)
	}
	p.wg.Wait()
}
