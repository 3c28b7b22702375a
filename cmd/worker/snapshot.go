package main

import (
	"math"
	"math/bits"
	"sort"

	"dismastd"
	"dismastd/internal/mat"
)

// blockRows is the height of one snapshot row block. At rank 10 a block
// is 5 kB and the spine of a 60 000-row mode is 938 slice headers: a
// 16-event batch re-copies little, and copying the spine on every
// publish stays cheap next to the row solves.
const blockRows = 64

// blockFactor is one published factor matrix: a spine of fixed-height
// row blocks, block b holding rows [b·blockRows, (b+1)·blockRows) in
// row-major order (the last block may be short). Neither the spine nor
// a block is written after publication, so successive snapshots share
// every block whose rows did not change and readers need no lock.
type blockFactor struct {
	rows, cols int
	blocks     [][]float64
}

func (f *blockFactor) row(i int) []float64 {
	off := i % blockRows * f.cols
	return f.blocks[i/blockRows][off : off+f.cols]
}

// dirtyBlocks records which row blocks the writes since the last
// publish changed: one bit per block of each mode, sized by the model,
// and an "everything" mark for a write that swept or failed. However
// many writes go unread, the record stays O(blocks).
type dirtyBlocks struct {
	all   bool
	modes [][]uint64 // bit b of modes[m]: block b of mode m holds a changed row
}

// mark records the rows events name; dims are the live mode sizes,
// which every coordinate is inside once the write has applied.
func (d *dirtyBlocks) mark(events []dismastd.Event, dims []int) {
	if d.all {
		return
	}
	if d.modes == nil {
		d.modes = make([][]uint64, len(dims))
	}
	for m, n := range dims {
		if words := ((n+blockRows-1)/blockRows + 63) / 64; len(d.modes[m]) < words {
			d.modes[m] = append(d.modes[m], make([]uint64, words-len(d.modes[m]))...)
		}
	}
	for i := range events {
		for m, c := range events[i].Coords {
			b := c / blockRows
			d.modes[m][b/64] |= 1 << (b % 64)
		}
	}
}

// mode returns mode m's block bits, nil when no write named the mode.
func (d *dirtyBlocks) mode(m int) []uint64 {
	if m < len(d.modes) {
		return d.modes[m]
	}
	return nil
}

// reset empties the record once a publish has taken it in.
func (d *dirtyBlocks) reset() {
	d.all = false
	for _, words := range d.modes {
		clear(words)
	}
}

// publishFactor returns the snapshot of live that follows prev, and how
// many blocks it copied. The caller vouches that live differs from prev
// only in the blocks dirty marks in this mode and in rows appended
// since: exactly those blocks are re-copied — plus, when the mode grew,
// everything from the block holding the first new row onward — and all
// others are shared with prev, however many writes the marks gather. A
// nil prev rebuilds every block.
func publishFactor(prev *blockFactor, live *mat.Dense, dirty []uint64) (*blockFactor, int) {
	next := &blockFactor{
		rows: live.Rows, cols: live.Cols,
		blocks: make([][]float64, (live.Rows+blockRows-1)/blockRows),
	}
	if prev != nil {
		shared := len(prev.blocks)
		if prev.rows < live.Rows {
			shared = prev.rows / blockRows
		}
		copy(next.blocks, prev.blocks[:shared])
		for w, word := range dirty {
			for ; word != 0; word &= word - 1 {
				next.blocks[w*64+bits.TrailingZeros64(word)] = nil // stale: copy below
			}
		}
	}
	copied := 0
	for b, blk := range next.blocks {
		if blk != nil {
			continue
		}
		lo, hi := b*blockRows, min((b+1)*blockRows, live.Rows)
		next.blocks[b] = append([]float64(nil), live.Data[lo*live.Cols:hi*live.Cols]...)
		copied++
	}
	return next, copied
}

// predict evaluates the Kruskal model at idx with dismastd.Predict's
// exact operation order, reading rows through the spines.
func (s *factorSnapshot) predict(idx []int) float64 {
	total := 0.0
	for c := 0; c < s.factors[0].cols; c++ {
		p := 1.0
		for k, f := range s.factors {
			p *= f.row(idx[k])[c]
		}
		total += p
	}
	return total
}

// topKWeights collapses the fixed modes of a top-K query into one
// rank-length weight vector: the score of target row i is then the dot
// product weights · row(i).
func (s *factorSnapshot) topKWeights(mode int, idx []int) []float64 {
	weights := make([]float64, s.factors[0].cols)
	for c := range weights {
		weights[c] = 1
	}
	for m, f := range s.factors {
		if m == mode {
			continue
		}
		row := f.row(idx[m])
		for c := range weights {
			weights[c] *= row[c]
		}
	}
	return weights
}

// topKResult is one scored row of the target mode.
type topKResult struct {
	Index int     `json:"index"`
	Score float64 `json:"score"`
}

// ranksBefore is the top-K order: score descending, index ascending. NaN
// ranks below every number, so the order is strict and total on any
// model and the heap and a full sort cannot disagree.
func ranksBefore(a, b topKResult) bool {
	if aNaN, bNaN := a.Score != a.Score, b.Score != b.Score; aNaN || bNaN {
		if aNaN != bNaN {
			return bNaN
		}
		return a.Index < b.Index
	}
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Index < b.Index
}

// selectTopK scores every row of target against weights and returns the
// k best in top-K order — O(I·R + I log k) time and O(k) space: only the
// k kept rows are ever stored, and only they are sorted at the end. k is
// clamped to the row count before anything is sized by it.
//
// The scoring loop is bound by the latency of one floating-point add
// chain per row, so rows are scored four at a time with independent
// accumulators; each row is still summed in column order, so every
// score is bitwise the one-row-at-a-time result.
func selectTopK(target *blockFactor, weights []float64, k int) []topKResult {
	kept := topKHeap{k: min(k, target.rows)}
	kept.rows = make([]topKResult, 0, kept.k)
	// Rows arrive in ascending index order, so a row can only displace
	// the worst kept one by scoring strictly higher: `score <= bar`
	// rejects it without touching the heap. bar is NaN — which no score
	// is <= — until the heap is full, and whenever its root is NaN.
	bar := math.NaN()
	r := target.cols
	for b, blk := range target.blocks {
		base, n := b*blockRows, len(blk)/r
		i := 0
		for ; i+4 <= n; i += 4 {
			r0, r1, r2, r3 := blk[i*r:(i+1)*r], blk[(i+1)*r:(i+2)*r], blk[(i+2)*r:(i+3)*r], blk[(i+3)*r:(i+4)*r]
			var s0, s1, s2, s3 float64
			for c, w := range weights {
				s0 += w * r0[c]
				s1 += w * r1[c]
				s2 += w * r2[c]
				s3 += w * r3[c]
			}
			if !(s0 <= bar) {
				bar = kept.offer(base+i, s0)
			}
			if !(s1 <= bar) {
				bar = kept.offer(base+i+1, s1)
			}
			if !(s2 <= bar) {
				bar = kept.offer(base+i+2, s2)
			}
			if !(s3 <= bar) {
				bar = kept.offer(base+i+3, s3)
			}
		}
		for ; i < n; i++ {
			row := blk[i*r : (i+1)*r]
			score := 0.0
			for c, w := range weights {
				score += w * row[c]
			}
			if !(score <= bar) {
				bar = kept.offer(base+i, score)
			}
		}
	}
	sort.Slice(kept.rows, func(a, b int) bool { return ranksBefore(kept.rows[a], kept.rows[b]) })
	return kept.rows
}

// topKHeap keeps the k best rows offered so far as a binary heap whose
// root ranks after every other entry: the worst kept row is on top.
type topKHeap struct {
	rows []topKResult
	k    int
}

// offer admits row i if fewer than k rows are kept or it ranks before
// the worst of them, and returns the score a later row must beat: the
// root's once the heap is full, NaN (always consult offer) before.
func (h *topKHeap) offer(i int, score float64) float64 {
	cand := topKResult{Index: i, Score: score}
	switch {
	case len(h.rows) < h.k:
		h.rows = append(h.rows, cand)
		for c := len(h.rows) - 1; c > 0; {
			parent := (c - 1) / 2
			if !ranksBefore(h.rows[parent], h.rows[c]) {
				break
			}
			h.rows[parent], h.rows[c] = h.rows[c], h.rows[parent]
			c = parent
		}
	case ranksBefore(cand, h.rows[0]):
		h.rows[0] = cand
		for p := 0; ; {
			worst := p
			for c := 2*p + 1; c <= 2*p+2 && c < len(h.rows); c++ {
				if ranksBefore(h.rows[worst], h.rows[c]) {
					worst = c
				}
			}
			if worst == p {
				break
			}
			h.rows[p], h.rows[worst] = h.rows[worst], h.rows[p]
			p = worst
		}
	}
	if len(h.rows) < h.k {
		return math.NaN()
	}
	return h.rows[0].Score
}
