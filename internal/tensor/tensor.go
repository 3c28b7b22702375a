// Package tensor implements sparse tensors of arbitrary order in
// coordinate (COO) format, together with the operations the
// multi-aspect streaming setting needs: prefix sub-tensors, relative
// complements of consecutive snapshots, and per-mode slice histograms
// that drive the GTP/MTP partitioners.
//
// Coordinates are stored flat as int32 (mode sizes up to 2^31-1, far
// beyond the paper's 1.2e7) so a 3rd-order entry costs 20 bytes.
package tensor

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"dismastd/internal/par"
)

// Tensor is an immutable sparse tensor in sorted coordinate format.
// Entries are lexicographically sorted by coordinate and deduplicated.
// Build one with a Builder, or read one with Read.
type Tensor struct {
	Dims   []int     // size of each mode; len(Dims) is the order
	Coords []int32   // flat coordinates, entry e mode m at Coords[e*N+m]
	Vals   []float64 // entry values; len(Vals)*len(Dims) == len(Coords)
}

// Order returns the number of modes N.
func (t *Tensor) Order() int { return len(t.Dims) }

// NNZ returns the number of stored non-zero entries.
func (t *Tensor) NNZ() int { return len(t.Vals) }

// Coord writes entry e's coordinates into buf (allocating when buf is
// too short) and returns it.
func (t *Tensor) Coord(e int, buf []int) []int {
	n := t.Order()
	if cap(buf) < n {
		buf = make([]int, n)
	}
	buf = buf[:n]
	base := e * n
	for m := 0; m < n; m++ {
		buf[m] = int(t.Coords[base+m])
	}
	return buf
}

// Val returns entry e's value.
func (t *Tensor) Val(e int) float64 { return t.Vals[e] }

// Norm returns the Frobenius norm sqrt(Σ x²) over the stored entries.
func (t *Tensor) Norm() float64 { return math.Sqrt(t.NormSq()) }

// NormSq returns the squared Frobenius norm Σ x².
func (t *Tensor) NormSq() float64 {
	s := 0.0
	for _, v := range t.Vals {
		s += v * v
	}
	return s
}

// SliceNNZ returns the number of non-zero entries in every slice of the
// given mode: out[i] = nnz(X[..., i, ...]). This is the a_i^(n)
// statistic both partitioning heuristics consume (Algorithms 2 and 3).
func (t *Tensor) SliceNNZ(mode int) []int64 {
	if mode < 0 || mode >= t.Order() {
		panic(fmt.Sprintf("tensor: SliceNNZ of mode %d on order-%d tensor", mode, t.Order()))
	}
	out := make([]int64, t.Dims[mode])
	n := t.Order()
	for e := 0; e < t.NNZ(); e++ {
		out[t.Coords[e*n+mode]]++
	}
	return out
}

// Prefix returns the sub-tensor with every coordinate below dims[m] in
// each mode m — the snapshot X^(T-1) as a prefix of X^(T) in the
// multi-aspect streaming model (Definition 4). dims must not exceed the
// tensor's own dims.
func (t *Tensor) Prefix(dims []int) *Tensor {
	t.checkPrefixDims(dims)
	return t.filter(dims, true, dims, nil)
}

// Complement returns the relative complement X \ X~ with respect to the
// prefix snapshot of the given old dims: every entry having at least
// one coordinate at or beyond oldDims[m] — the union of the paper's
// binary-tuple regions other than X^(0,…,0). The result keeps the full
// tensor's dims. Given a pool, the scan runs as its chunks; with none,
// or a nil one, it runs on the caller. The result is the same entry for
// entry either way.
func (t *Tensor) Complement(oldDims []int, pool ...*par.Pool) *Tensor {
	t.checkPrefixDims(oldDims)
	var p *par.Pool
	if len(pool) > 0 {
		p = pool[0]
	}
	return t.filter(oldDims, false, t.Dims, p)
}

// filter copies the entries whose membership in the prefix box equals
// inside into a new tensor of the given dims, in source order. The
// source is canonical (sorted, deduplicated, no stored zeros) and an
// order-preserving subset of a canonical tensor is canonical, so the
// result needs no Builder.
//
// Canonical order sorts by mode 0 first, so the entries at or beyond
// box[0] in mode 0 — outside the box — are a suffix, found by binary
// search and taken (complement) or dropped (prefix) as one block. Only
// the rest is tested: a predicate pass marks the kept entries in a
// bitmap and counts them, the result is allocated once at its final
// size, and a copy pass moves each run of kept entries as one block. On
// a pool both passes run as chunks of whole 64-entry bitmap words; the
// per-chunk counts give each chunk its output offset, so the result is
// the sequential one.
func (t *Tensor) filter(box []int, inside bool, dims []int, pool *par.Pool) *Tensor {
	f := filterRun{src: t, box: box, inside: inside, end: t.firstAtOrBeyond(box[0])}
	f.keep = make([]uint64, (f.end+63)/64)
	words := len(f.keep)
	var chunks *filterChunks
	kept := 0
	if pool.Threads() > 1 {
		chunks = &filterChunks{run: f, at: make([]int, pool.Threads())}
		pool.For(words, chunks)
		for i, c := range chunks.at {
			chunks.at[i], kept = kept, kept+c
		}
	} else {
		kept = f.mark(0, words)
	}
	suffix := 0
	if !inside {
		suffix = t.NNZ() - f.end
	}
	out := &Tensor{Dims: append([]int(nil), dims...)}
	if kept+suffix == 0 {
		return out
	}
	n := t.Order()
	out.Coords = make([]int32, (kept+suffix)*n)
	out.Vals = make([]float64, kept+suffix)
	if chunks != nil {
		chunks.run.out, chunks.copying = out, true
		pool.For(words, chunks)
	} else {
		f.out = out
		f.copyKept(0, words, 0)
	}
	copy(out.Coords[kept*n:], t.Coords[f.end*n:f.end*n+suffix*n])
	copy(out.Vals[kept:], t.Vals[f.end:f.end+suffix])
	return out
}

// firstAtOrBeyond returns the first entry whose mode-0 coordinate is at
// least c, or NNZ when there is none: entries are sorted by mode 0 first.
func (t *Tensor) firstAtOrBeyond(c int) int {
	n := t.Order()
	lo, hi := 0, t.NNZ()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(t.Coords[mid*n]) < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// filterRun is one filter call over entries [0, end): bit e of keep
// marks entry e as kept.
type filterRun struct {
	src    *Tensor
	box    []int
	inside bool
	end    int
	keep   []uint64
	out    *Tensor
}

// mark fills keep words [w0, w1) and returns the number of kept entries
// they hold.
func (f *filterRun) mark(w0, w1 int) int {
	n := f.src.Order()
	var flip uint64 // 1 when the kept entries are the ones inside the box
	if f.inside {
		flip = 1
	}
	kept := 0
	for w := w0; w < w1; w++ {
		lo, hi := w<<6, min(w<<6+64, f.end)
		word := markWord(f.src.Coords[lo*n:hi*n], n, f.box, flip)
		f.keep[w] = word
		kept += bits.OnesCount64(word)
	}
	return kept
}

// markWord returns the keep bits of up to 64 entries, n coordinates
// each, all below box[0] in mode 0: bit k is set when entry k is beyond
// the box in another mode, flipped by flip. Every other mode is
// compared, so the bit is computed, not branched on.
func markWord(coords []int32, n int, box []int, flip uint64) uint64 {
	if n == 3 {
		return markWord3(coords, box[1], box[2], flip)
	}
	var word uint64
	for k := 0; k*n < len(coords); k++ {
		c := coords[k*n : k*n+n]
		var beyond uint64
		for m := 1; m < n; m++ {
			if int(c[m]) >= box[m] {
				beyond = 1
			}
		}
		word |= (beyond ^ flip) << k
	}
	return word
}

// markWord3 is markWord at order 3: c ≥ b exactly when b−1−c is
// negative, so an entry is beyond the box when the OR of its two
// differences has the sign bit set.
func markWord3(coords []int32, b1, b2 int, flip uint64) uint64 {
	var word uint64
	for k := 0; len(coords) >= 3; k++ {
		beyond := uint64((b1-1-int(coords[1]))|(b2-1-int(coords[2]))) >> 63
		word |= (beyond ^ flip) << k
		coords = coords[3:]
	}
	return word
}

// copyKept copies the kept entries of keep words [w0, w1) to out,
// starting at output entry at. Runs of kept entries — merged across
// word boundaries — move as one block each.
func (f *filterRun) copyKept(w0, w1, at int) {
	run, end := 0, 0 // the pending run of kept entries, [run, end)
	for w := w0; w < w1; w++ {
		for word := f.keep[w]; word != 0; {
			lo := bits.TrailingZeros64(word)
			l := bits.TrailingZeros64(^(word >> lo))
			if e := w<<6 + lo; e != end {
				at = f.copyRun(run, end, at)
				run = e
			}
			end = w<<6 + lo + l
			word &^= (uint64(1)<<l - 1) << lo
		}
	}
	f.copyRun(run, end, at)
}

// copyRun copies source entries [e0, e1) to out at output entry at and
// returns the output entry after them.
func (f *filterRun) copyRun(e0, e1, at int) int {
	n := f.src.Order()
	copy(f.out.Coords[at*n:], f.src.Coords[e0*n:e1*n])
	copy(f.out.Vals[at:], f.src.Vals[e0:e1])
	return at + e1 - e0
}

// filterChunks runs a filterRun's two passes as pool chunks of keep
// words. Chunk tid's mark pass leaves its kept count in at[tid]; filter
// turns the counts into output offsets for the copy pass. The pool
// splits both passes identically, so chunk tid covers the same words in
// each.
type filterChunks struct {
	run     filterRun
	at      []int
	copying bool
}

func (c *filterChunks) RunChunk(lo, hi, tid int) {
	if c.copying {
		c.run.copyKept(lo, hi, c.at[tid])
	} else {
		c.at[tid] = c.run.mark(lo, hi)
	}
}

func (t *Tensor) checkPrefixDims(dims []int) {
	if len(dims) != t.Order() {
		panic(fmt.Sprintf("tensor: %d prefix dims on order-%d tensor", len(dims), t.Order()))
	}
	for m, d := range dims {
		if d < 0 || d > t.Dims[m] {
			panic(fmt.Sprintf("tensor: prefix dim %d out of range [0, %d] in mode %d", d, t.Dims[m], m))
		}
	}
}

// ToDense expands the tensor into a dense row-major array (last mode
// fastest). Intended for small test tensors only; it panics when the
// dense size would exceed 1<<26 elements.
func (t *Tensor) ToDense() []float64 {
	size := 1
	for _, d := range t.Dims {
		size *= d
	}
	if size > 1<<26 {
		panic("tensor: ToDense on a tensor too large to densify")
	}
	out := make([]float64, size)
	n := t.Order()
	for e := 0; e < t.NNZ(); e++ {
		off := 0
		for m := 0; m < n; m++ {
			off = off*t.Dims[m] + int(t.Coords[e*n+m])
		}
		out[off] = t.Vals[e]
	}
	return out
}

// Builder accumulates coordinate/value pairs and produces a canonical
// sorted, deduplicated Tensor. Duplicate coordinates are summed, and
// entries whose accumulated value is exactly zero are dropped.
//
// Build orders the entries with a stable LSD radix sort and merges
// each run of equal coordinates in one pass, so a canonical tensor
// costs O(nnz) per 8-bit coordinate digit rather than a comparison
// sort's O(nnz log nnz) closure calls. Its result is the one a
// comparison sort of the append order gives, bit for bit; see Build.
type Builder struct {
	dims   []int
	coords []int32
	vals   []float64
}

// NewBuilder returns a Builder for a tensor with the given mode sizes.
func NewBuilder(dims []int) *Builder {
	if len(dims) == 0 {
		panic("tensor: NewBuilder with no modes")
	}
	for m, d := range dims {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dim %d in mode %d", d, m))
		}
	}
	return &Builder{dims: append([]int(nil), dims...)}
}

// Append records one entry. It panics on out-of-range coordinates.
func (b *Builder) Append(idx []int, v float64) {
	if len(idx) != len(b.dims) {
		panic(fmt.Sprintf("tensor: Append with %d indices on order-%d builder", len(idx), len(b.dims)))
	}
	for m, i := range idx {
		if i < 0 || i >= b.dims[m] {
			panic(fmt.Sprintf("tensor: coordinate %d out of range [0, %d) in mode %d", i, b.dims[m], m))
		}
		b.coords = append(b.coords, int32(i))
	}
	b.vals = append(b.vals, v)
}

// Len returns the number of entries appended so far (before dedup).
func (b *Builder) Len() int { return len(b.vals) }

// Build sorts, deduplicates (summing values), drops exact zeros, and
// returns the canonical Tensor. The Builder must not be reused.
//
// The entries are ordered by a stable LSD radix sort that moves each
// entry's coordinates and value: one counting pass per 8-bit digit of
// each mode's coordinate, last mode first and low digit first, after a
// single pass that histograms every digit. Modes of size ≤ 1, and
// digits all entries share, cost no pass; a 4800×180×128 tensor takes
// four. One pass then sums each run of equal coordinates and drops the
// zero sums, in place in the outputs, which are allocated once.
//
// The order a cell's repeats are summed in shows in the result's bits
// only when the cell repeats three or more times, or a repeat is NaN:
// two other addends commute. There the canonical order is a comparison
// sort's — pdqsort from append order under lexicographic comparison —
// so when the merge meets such a run it starts over from a
// slices.SortFunc order. The result is the comparison-sorted build's
// bit for bit on every input, but for which NaN a sum of two NaNs
// returns: Go leaves that unspecified.
func (b *Builder) Build() *Tensor {
	n, nnz := len(b.dims), len(b.vals)
	t := &Tensor{Dims: b.dims, Coords: make([]int32, nnz*n), Vals: make([]float64, nnz)}
	b.radixSortInto(t)
	w, ok := mergeRuns(t.Coords, t.Vals, n, true)
	if !ok {
		b.comparisonSortInto(t)
		w, _ = mergeRuns(t.Coords, t.Vals, n, false)
	}
	if 2*w <= nnz {
		// Keep no more than twice the memory the entries need, as
		// append growth would.
		t.Coords = append([]int32(nil), t.Coords[:w*n]...)
		t.Vals = append([]float64(nil), t.Vals[:w]...)
	}
	t.Coords, t.Vals = t.Coords[:w*n], t.Vals[:w]
	return t
}

// radixBits is the width of one radix-sort digit: 256 buckets.
const radixBits = 8

// radixSortInto writes b's entries into t's coordinates and values in
// canonical coordinate order, equal coordinates in append order.
func (b *Builder) radixSortInto(t *Tensor) {
	n, nnz := len(b.dims), len(b.vals)
	type digit struct {
		mode  int
		shift uint
	}
	var digits []digit
	for m := n - 1; m >= 0; m-- {
		if b.dims[m] <= 1 {
			continue
		}
		for s := 0; s < bits.Len(uint(b.dims[m]-1)); s += radixBits {
			digits = append(digits, digit{m, uint(s)})
		}
	}
	const mask = 1<<radixBits - 1
	counts := make([][1 << radixBits]int, len(digits))
	for e := 0; e < nnz; e++ {
		c := b.coords[e*n : e*n+n]
		for i, d := range digits {
			counts[i][uint32(c[d.mode])>>d.shift&mask]++
		}
	}
	// A digit every entry shares moves nothing.
	passes := 0
	for i, d := range digits {
		if nnz > 0 && counts[i][uint32(b.coords[d.mode])>>d.shift&mask] != nnz {
			digits[passes], counts[passes] = d, counts[i]
			passes++
		}
	}
	srcC, srcV := b.coords, b.vals
	if passes == 0 {
		copy(t.Coords, srcC)
		copy(t.Vals, srcV)
		return
	}
	// Passes alternate between t and a spare, so the last one writes t.
	dstC, dstV := t.Coords, t.Vals
	var spareC []int32
	var spareV []float64
	if passes > 1 {
		spareC, spareV = make([]int32, nnz*n), make([]float64, nnz)
		if passes%2 == 0 {
			dstC, dstV, spareC, spareV = spareC, spareV, dstC, dstV
		}
	}
	for i, d := range digits[:passes] {
		at := &counts[i]
		sum := 0
		for k, c := range at {
			at[k], sum = sum, sum+c
		}
		for e := 0; e < nnz; e++ {
			k := uint32(srcC[e*n+d.mode]) >> d.shift & mask
			o := at[k]
			at[k]++
			src, dst := srcC[e*n:e*n+n], dstC[o*n:o*n+n]
			for m, c := range src {
				dst[m] = c
			}
			dstV[o] = srcV[e]
		}
		srcC, srcV = dstC, dstV
		dstC, dstV, spareC, spareV = spareC, spareV, dstC, dstV
	}
}

// comparisonSortInto writes b's entries into t's coordinates and values
// in the order pdqsort gives from append order under lexicographic
// coordinate comparison. When every mode's coordinate bits fit in 64
// together, it sorts each entry's packed coordinates beside its index:
// the packed keys compare as the coordinates do, and pdqsort's moves
// depend on nothing but the comparisons' outcomes, so the order is the
// same, without chasing each compared entry's coordinates.
func (b *Builder) comparisonSortInto(t *Tensor) {
	n, nnz := len(b.dims), len(b.vals)
	width, total := make([]int, n), 0
	for m, d := range b.dims {
		width[m] = bits.Len(uint(max(d, 1) - 1))
		total += width[m]
	}
	if total > 64 {
		order := make([]int, nnz)
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(x, y int) int {
			return slices.Compare(b.coords[x*n:x*n+n], b.coords[y*n:y*n+n])
		})
		for i, e := range order {
			b.moveEntry(t, i, e)
		}
		return
	}
	type keyed struct {
		key uint64
		e   int
	}
	ks := make([]keyed, nnz)
	for e := range ks {
		key := uint64(0)
		for m, c := range b.coords[e*n : e*n+n] {
			key = key<<width[m] | uint64(c)
		}
		ks[e] = keyed{key, e}
	}
	slices.SortFunc(ks, func(x, y keyed) int { return cmp.Compare(x.key, y.key) })
	for i, k := range ks {
		b.moveEntry(t, i, k.e)
	}
}

// moveEntry copies b's entry e to t's entry i.
func (b *Builder) moveEntry(t *Tensor, i, e int) {
	n := len(b.dims)
	copy(t.Coords[i*n:i*n+n], b.coords[e*n:e*n+n])
	t.Vals[i] = b.vals[e]
}

// mergeRuns sums each run of equal coordinates among the sorted entries
// into one entry, drops the sums that are exactly zero, compacts the
// result to the front of coords and vals, and returns its entry count.
// With strict set it gives up, returning false, at the first run whose
// sum depends on the order of its addends: three or more entries, or
// two with a NaN among them.
func mergeRuns(coords []int32, vals []float64, n int, strict bool) (int, bool) {
	w := 0
	for i := 0; i < len(vals); {
		c := coords[i*n : i*n+n]
		sum := vals[i]
		j := i + 1
		for ; j < len(vals) && sameCoords(coords[j*n:j*n+n], c); j++ {
			if strict && (j > i+1 || math.IsNaN(sum) || math.IsNaN(vals[j])) {
				return 0, false
			}
			sum += vals[j]
		}
		if sum != 0 {
			if w != i {
				copy(coords[w*n:w*n+n], c)
			}
			vals[w] = sum
			w++
		}
		i = j
	}
	return w, true
}

func sameCoords(a, b []int32) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
