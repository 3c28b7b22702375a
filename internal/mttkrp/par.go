package mttkrp

// Row-block-parallel MTTKRP over any Kernel. The grouped
// representations already isolate each output row in its own group, so
// parallelism is a partition of the group list: an nnz-balanced grid
// of contiguous group ranges (one rule for both representations), one
// chunk per pool thread, each chunk accumulating with scratch from its
// thread's workspace. No floating-point accumulator crosses a chunk
// boundary, so the result is bitwise identical at every thread count
// (and to the sequential grouped kernel, which is the 1-chunk case).

import (
	"fmt"

	"dismastd/internal/mat"
	"dismastd/internal/obs"
	"dismastd/internal/par"
)

// ParAccumulator runs row-grouped MTTKRPs on a pool. It is owned by
// one driving goroutine; the per-call fields below make dispatch
// allocation-free, so a warm accumulator adds nothing to the steady
// state. Construct once per driver next to the pool and its
// WorkspaceSet.
type ParAccumulator struct {
	pool *par.Pool
	wss  *mat.WorkspaceSet
	o    *obs.Obs

	cChunks *obs.Counter
	gDepth  *obs.Gauge

	// Per-call state, set by Accumulate and read by RunChunk.
	kernel  Kernel
	dst     *mat.Dense
	factors []*mat.Dense
	span    string
}

// NewParAccumulator binds an accumulator to a pool and its per-thread
// workspaces. o may be nil; when live, every call records the chunk
// count on the "par.chunks" counter and the dispatch fan-out (chunks
// handed to pool workers) on the "par.queue.depth" gauge, and each
// chunk opens a span named by the call's chunkSpan argument.
func NewParAccumulator(pool *par.Pool, wss *mat.WorkspaceSet, o *obs.Obs) *ParAccumulator {
	if wss.Len() < pool.Threads() {
		panic(fmt.Sprintf("mttkrp: ParAccumulator with %d workspaces for %d threads", wss.Len(), pool.Threads()))
	}
	return &ParAccumulator{
		pool:    pool,
		wss:     wss,
		o:       o,
		cChunks: o.Counter("par.chunks"),
		gDepth:  o.Gauge("par.queue.depth"),
	}
}

// Accumulate adds the kernel's MTTKRP into dst, chunked across the
// pool. chunkSpan names the per-chunk spans (e.g.
// "mode0/mttkrp.chunk"); empty means no spans.
func (p *ParAccumulator) Accumulate(dst *mat.Dense, k Kernel, factors []*mat.Dense, chunkSpan string) {
	k.Validate(dst, factors)
	starts := k.ChunkStarts(p.pool.Threads())
	p.kernel, p.dst, p.factors, p.span = k, dst, factors, chunkSpan
	p.pool.ForChunks(starts, p)
	p.kernel, p.dst, p.factors = nil, nil, nil
	chunks := int64(len(starts) - 1)
	p.cChunks.Add(chunks)
	p.gDepth.Set(float64(chunks - 1))
}

// RunChunk implements par.Body over a group range of the current
// kernel.
func (p *ParAccumulator) RunChunk(g0, g1, tid int) {
	var sp obs.Span
	if p.span != "" {
		sp = p.o.Span(p.span)
	}
	ws := p.wss.At(tid)
	mark := ws.Mark()
	r := p.dst.Cols
	p.kernel.AccumulateGroups(p.dst, p.factors, g0, g1, ws.TakeVec(r), ws.TakeVec(r))
	ws.Release(mark)
	if p.span != "" {
		sp.End()
	}
}
