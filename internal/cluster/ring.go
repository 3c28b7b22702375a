package cluster

import "fmt"

// Ring collectives: the bandwidth-optimal path for large payloads.
//
// The binomial tree moves the whole vector through every level, so the
// root handles O(n·log M) bytes; the ring instead cuts the vector into
// M contiguous segments and pipelines them around the cycle, so every
// rank sends and receives exactly 2·(M−1)/M·n bytes — the classic
// Baidu/Horovod all-reduce structure, and the bound DisMASTD's
// communication argument (Theorem 4) wants per rank.
//
// Determinism: segment s starts at its home rank s and travels the ring
// in ascending rank order, each hop folding in that rank's local
// values. Every element of the result is therefore produced by exactly
// one addition sequence — (((x_s + x_{s+1}) + x_{s+2}) + …) in ring
// order — on exactly one rank, and the all-gather phase copies those
// bytes verbatim everywhere. All ranks observe identical bits and
// repeated runs reproduce them, at a fixed cluster size. The grouping
// differs from the tree path's, so the two paths are each reproducible
// but not bitwise interchangeable; the selection threshold keeps any
// given payload on one fixed path.

// segBounds returns the [lo, hi) range of segment s when a vector of
// length n is cut into m contiguous segments (sizes differ by at most
// one). The split is a pure function of n and m, so every rank derives
// identical bounds.
func segBounds(n, m, s int) (int, int) { return s * n / m, (s + 1) * n / m }

// ringAllReduceSum is AllReduceSumInPlace's ring path: a reduce-scatter
// (each segment accumulates around the ring, landing fully reduced one
// hop before its home) followed by an all-gather that circulates the
// reduced segments. Requires len(vec) >= size so no segment is empty.
func (w *Worker) ringAllReduceSum(vec []float64) error {
	m := w.size
	next := (w.rank + 1) % m
	prev := (w.rank - 1 + m) % m

	// Reduce-scatter: at step t this rank forwards its running partial
	// of segment (rank−t) mod m and folds the incoming partial of
	// segment (rank−t−1) mod m into its local values.
	rsTag := w.StreamTag("reduce/rs")
	for t := 0; t < m-1; t++ {
		sendSeg := ((w.rank-t)%m + m) % m
		lo, hi := segBounds(len(vec), m, sendSeg)
		buf := w.GetBuf(8 * (hi - lo))
		PutFloat64s(buf, vec[lo:hi])
		if err := w.SendPooled(next, rsTag, buf); err != nil {
			return err
		}
		payload, err := w.Recv(prev, rsTag)
		if err != nil {
			return err
		}
		recvSeg := ((w.rank-t-1)%m + m) % m
		lo, hi = segBounds(len(vec), m, recvSeg)
		if len(payload) != 8*(hi-lo) {
			return fmt.Errorf("cluster: ring reduce-scatter step %d: %d bytes for a segment of %d values", t, len(payload), hi-lo)
		}
		AddFloat64s(vec[lo:hi], payload)
		w.PutBuf(payload)
	}

	// All-gather: rank r now owns the fully reduced segment (r+1) mod m;
	// circulate the reduced segments the rest of the way around. Each
	// received buffer is forwarded as-is on the next step — zero-copy on
	// the in-process transport — and only the last one is returned to
	// the pool here.
	agTag := w.StreamTag("reduce/ag")
	var carry []byte
	for t := 0; t < m-1; t++ {
		if t == 0 {
			lo, hi := segBounds(len(vec), m, (w.rank+1)%m)
			carry = w.GetBuf(8 * (hi - lo))
			PutFloat64s(carry, vec[lo:hi])
		}
		if err := w.SendPooled(next, agTag, carry); err != nil {
			return err
		}
		payload, err := w.Recv(prev, agTag)
		if err != nil {
			return err
		}
		recvSeg := ((w.rank-t)%m + m) % m
		lo, hi := segBounds(len(vec), m, recvSeg)
		if len(payload) != 8*(hi-lo) {
			return fmt.Errorf("cluster: ring all-gather step %d: %d bytes for a segment of %d values", t, len(payload), hi-lo)
		}
		CopyFloat64s(vec[lo:hi], payload)
		carry = payload
	}
	if carry != nil {
		w.PutBuf(carry)
	}
	return nil
}
