package cluster

import (
	"fmt"
	"strconv"
)

// Collectives. Every worker in the cluster must invoke the same
// sequence of collective calls — the lockstep structure of the
// distributed decomposition (all workers sweep the same modes in the
// same order). Two tag schemes ride on that contract:
//
//   - Counter tags (nextTag): each call consumes one slot of the
//     per-worker collective counter, which namespaces its message tags
//     so consecutive collectives never cross-match. Used by the cold
//     operations (Barrier, BroadcastBytes).
//
//   - Stream tags (StreamTag): one fixed tag per logical message
//     stream, reused across calls. Matching is still exact because the
//     mailbox preserves FIFO order per (sender, tag) and all workers
//     issue the stream's operations in the same order; reusing the tag
//     is what lets the hot collectives (all-reduce, gather, exchange)
//     run with zero steady-state allocations.
//
// On the TCP transport both schemes carry an additional per-Run epoch
// prefix, so a rank racing ahead into the next node.Run phase cannot
// cross-match a peer still finishing the last.

// nextTag returns the next counter-namespaced tag for op — the
// epoch-prefixed "<op>#<seq>" scheme — built with integer appends into
// a reusable scratch buffer rather than fmt machinery.
func (w *Worker) nextTag(op string) string {
	b := append(w.tagBuf[:0], w.tagEpoch...)
	b = append(b, op...)
	b = append(b, '#')
	b = strconv.AppendUint(b, w.coll, 10)
	w.tagBuf = b
	w.coll++
	return string(b)
}

// streamKey identifies one logical message stream of the algorithm.
type streamKey struct {
	name string
	idx  int
}

// StreamTag returns the worker's stable tag for a named logical message
// stream ("reduce", "rows", ...). Unlike a counter tag the same string
// is returned on every call, so steady-state collectives generate no tag
// garbage; correctness relies on per-(sender, tag) FIFO delivery plus
// the collectives contract above. The TCP Run epoch prefix is included,
// like counter tags.
func (w *Worker) StreamTag(name string) string { return w.streamTagIdx(name, -1) }

// StreamTagIndexed is StreamTag for a numbered stream family, e.g. the
// per-mode row exchanges ("rows/<mode>").
func (w *Worker) StreamTagIndexed(name string, idx int) string { return w.streamTagIdx(name, idx) }

func (w *Worker) streamTagIdx(name string, idx int) string {
	k := streamKey{name, idx}
	if t, ok := w.streams[k]; ok {
		return t
	}
	b := make([]byte, 0, len(w.tagEpoch)+len(name)+12)
	b = append(b, w.tagEpoch...)
	b = append(b, name...)
	if idx >= 0 {
		b = append(b, '/')
		b = strconv.AppendInt(b, int64(idx), 10)
	}
	t := string(b)
	w.streams[k] = t
	return t
}

// useRing reports whether a collective over payloadBytes takes the ring
// path. The decision is a pure function of the payload size and cluster
// shape, so every rank selects the same path for the same lockstep
// call.
func (w *Worker) useRing(payloadBytes int) bool {
	return w.ringThresh > 0 && payloadBytes >= w.ringThresh && w.size > 1
}

// Barrier blocks until every worker has entered it: ranks report to
// rank 0, which releases them.
func (w *Worker) Barrier() error {
	tag := w.nextTag("barrier")
	if w.rank == 0 {
		for r := 1; r < w.size; r++ {
			if _, err := w.Recv(r, tag); err != nil {
				return err
			}
		}
		for r := 1; r < w.size; r++ {
			if err := w.Send(r, tag+"/ack", nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := w.Send(0, tag, nil); err != nil {
		return err
	}
	_, err := w.Recv(0, tag+"/ack")
	return err
}

// BroadcastBytes distributes root's data to every rank and returns it.
// Non-root callers' data argument is ignored. The data flows down a
// binomial tree rooted at root, so no rank sends or receives more than
// ⌈log₂ M⌉ messages — the same structure real MPI/Spark broadcasts use,
// and what keeps the per-rank traffic at the O(R²·log M) the runtime's
// byte counters feed into the cost model.
func (w *Worker) BroadcastBytes(root int, data []byte) ([]byte, error) {
	tag := w.nextTag("bcast")
	vr := (w.rank - root + w.size) % w.size // virtual rank with root at 0
	for bit := 1; bit < w.size; bit <<= 1 {
		if vr < bit {
			// This rank already holds the data: feed the subtree peer.
			peer := vr + bit
			if peer < w.size {
				if err := w.Send((peer+root)%w.size, tag, data); err != nil {
					return nil, err
				}
			}
		} else if vr < bit<<1 {
			got, err := w.Recv((vr-bit+root)%w.size, tag)
			if err != nil {
				return nil, err
			}
			data = got
		}
	}
	return data, nil
}

// bcastFloat64s overwrites vec on every rank with rank 0's values, down
// a binomial tree of pooled buffers: the allocation-free broadcast leg
// of the tree all-reduce.
func (w *Worker) bcastFloat64s(vec []float64, tag string) error {
	for bit := 1; bit < w.size; bit <<= 1 {
		if w.rank < bit {
			peer := w.rank + bit
			if peer >= w.size {
				continue
			}
			buf := w.GetBuf(8 * len(vec))
			PutFloat64s(buf, vec)
			if err := w.SendPooled(peer, tag, buf); err != nil {
				return err
			}
		} else if w.rank < bit<<1 {
			payload, err := w.Recv(w.rank-bit, tag)
			if err != nil {
				return err
			}
			if len(payload) != 8*len(vec) {
				return fmt.Errorf("cluster: broadcast of %d bytes, want %d", len(payload), 8*len(vec))
			}
			CopyFloat64s(vec, payload)
			w.PutBuf(payload)
		}
	}
	return nil
}

// AllReduceSumInPlace overwrites vec on every rank with the elementwise
// sum across ranks. Small vectors take a binomial-tree reduction to
// rank 0 followed by a tree broadcast of the canonical sum; vectors at
// or above the ring threshold take a ring reduce-scatter plus ring
// all-gather (ring.go), which is bandwidth-optimal. Both paths are
// deterministic — a single summation order per element, identical bits
// on every rank — though the two paths group the additions differently,
// so results are reproducible per path, not across a threshold change.
// This is the all-to-all reduction of the paper's Section IV-B3, used
// to aggregate the partial Gram matrices ÃᵀA₀ and A₀ᵀA₀ across
// partitions.
func (w *Worker) AllReduceSumInPlace(vec []float64) error {
	if w.useRing(8*len(vec)) && len(vec) >= w.size {
		w.cc.ringReduce.Inc()
		return w.ringAllReduceSum(vec)
	}
	w.cc.treeReduce.Inc()
	return w.treeAllReduceSum(vec)
}

// treeAllReduceSum is the binomial-tree all-reduce: in round `bit`,
// ranks with that bit set push their accumulator one level up and drop
// out; rank 0 then broadcasts the canonical sum. Payloads ride pooled
// buffers, so the steady state allocates nothing.
func (w *Worker) treeAllReduceSum(vec []float64) error {
	tag := w.StreamTag("reduce")
	for bit := 1; bit < w.size; bit <<= 1 {
		if w.rank&bit != 0 {
			buf := w.GetBuf(8 * len(vec))
			PutFloat64s(buf, vec)
			if err := w.SendPooled(w.rank-bit, tag, buf); err != nil {
				return err
			}
			break // handed off; wait for the canonical sum below
		}
		peer := w.rank + bit
		if peer >= w.size {
			continue
		}
		payload, err := w.Recv(peer, tag)
		if err != nil {
			return err
		}
		if len(payload) != 8*len(vec) {
			return fmt.Errorf("cluster: allreduce rank %d contributed %d bytes, want %d", peer, len(payload), 8*len(vec))
		}
		AddFloat64s(vec, payload)
		w.PutBuf(payload)
	}
	return w.bcastFloat64s(vec, w.StreamTag("reduce/bc"))
}

// ReduceScalarSum is AllReduceSumInPlace for a single value, through the
// worker's persistent one-element scratch.
func (w *Worker) ReduceScalarSum(x float64) (float64, error) {
	w.scalar[0] = x
	if err := w.AllReduceSumInPlace(w.scalar[:]); err != nil {
		return 0, err
	}
	return w.scalar[0], nil
}
