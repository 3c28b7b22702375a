// Package tensor implements sparse tensors of arbitrary order in
// coordinate (COO) format, together with the operations the
// multi-aspect streaming setting needs: prefix sub-tensors, relative
// complements of consecutive snapshots, binary region classification
// (the 2^N sub-tensor tuples of the paper's Fig. 2), and per-mode slice
// histograms that drive the GTP/MTP partitioners.
//
// Coordinates are stored flat as int32 (mode sizes up to 2^31-1, far
// beyond the paper's 1.2e7) so a 3rd-order entry costs 20 bytes.
package tensor

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
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

// At returns the value at idx, or 0 when absent, by binary search over
// the sorted coordinates. Intended for tests and small tensors.
func (t *Tensor) At(idx []int) float64 {
	if len(idx) != t.Order() {
		panic(fmt.Sprintf("tensor: At with %d indices on order-%d tensor", len(idx), t.Order()))
	}
	n := t.Order()
	lo, hi := 0, t.NNZ()
	for lo < hi {
		mid := (lo + hi) / 2
		if compareCoords(t.Coords[mid*n:mid*n+n], idx) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < t.NNZ() && compareCoords(t.Coords[lo*n:lo*n+n], idx) == 0 {
		return t.Vals[lo]
	}
	return 0
}

func compareCoords(c []int32, idx []int) int {
	for m, v := range c {
		switch {
		case int(v) < idx[m]:
			return -1
		case int(v) > idx[m]:
			return 1
		}
	}
	return 0
}

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
	return t.filter(dims, true, dims)
}

// Complement returns the relative complement X \ X~ with respect to the
// prefix snapshot of the given old dims: every entry having at least
// one coordinate at or beyond oldDims[m] — the union of the paper's
// binary-tuple regions other than X^(0,…,0). The result keeps the full
// tensor's dims.
func (t *Tensor) Complement(oldDims []int) *Tensor {
	t.checkPrefixDims(oldDims)
	return t.filter(oldDims, false, t.Dims)
}

// filter copies the entries whose membership in the prefix box equals
// inside into a new tensor of the given dims, in source order. The
// source is canonical (sorted, deduplicated, no stored zeros) and an
// order-preserving subset of a canonical tensor is canonical, so the
// result needs no Builder: one predicate pass marks and counts the kept
// entries, the result is allocated once at its final size, and the copy
// pass visits the marked entries only.
func (t *Tensor) filter(box []int, inside bool, dims []int) *Tensor {
	n := t.Order()
	keep := make([]uint64, (t.NNZ()+63)/64) // bit e: entry e is kept
	nnz := 0
	for e := 0; e < t.NNZ(); e++ {
		if t.inPrefix(e, box) == inside {
			keep[e>>6] |= 1 << (e & 63)
			nnz++
		}
	}
	out := &Tensor{Dims: append([]int(nil), dims...)}
	if nnz == 0 {
		return out
	}
	out.Coords = make([]int32, 0, nnz*n)
	out.Vals = make([]float64, 0, nnz)
	for w, word := range keep {
		for ; word != 0; word &= word - 1 {
			e := w<<6 + bits.TrailingZeros64(word)
			out.Coords = append(out.Coords, t.Coords[e*n:e*n+n]...)
			out.Vals = append(out.Vals, t.Vals[e])
		}
	}
	return out
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

func (t *Tensor) inPrefix(e int, dims []int) bool {
	base := e * t.Order()
	for m, d := range dims {
		if int(t.Coords[base+m]) >= d {
			return false
		}
	}
	return true
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

// Equal reports whether two tensors have identical dims, coordinates,
// and values (exact float comparison; both sides must be Built so the
// coordinate order is canonical).
func Equal(a, b *Tensor) bool {
	if a.Order() != b.Order() || a.NNZ() != b.NNZ() {
		return false
	}
	for m := range a.Dims {
		if a.Dims[m] != b.Dims[m] {
			return false
		}
	}
	for i := range a.Coords {
		if a.Coords[i] != b.Coords[i] {
			return false
		}
	}
	for i := range a.Vals {
		if a.Vals[i] != b.Vals[i] {
			return false
		}
	}
	return true
}

// Builder accumulates coordinate/value pairs and produces a canonical
// sorted, deduplicated Tensor. Duplicate coordinates are summed, and
// entries whose accumulated value is exactly zero are dropped.
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
func (b *Builder) Build() *Tensor {
	n := len(b.dims)
	nnz := len(b.vals)
	perm := make([]int, nnz)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(x, y int) bool {
		cx := b.coords[perm[x]*n : perm[x]*n+n]
		cy := b.coords[perm[y]*n : perm[y]*n+n]
		for m := 0; m < n; m++ {
			if cx[m] != cy[m] {
				return cx[m] < cy[m]
			}
		}
		return false
	})
	t := &Tensor{Dims: b.dims}
	for _, e := range perm {
		c := b.coords[e*n : e*n+n]
		if len(t.Vals) > 0 && sameCoords(t.Coords[len(t.Coords)-n:], c) {
			t.Vals[len(t.Vals)-1] += b.vals[e]
			continue
		}
		t.Coords = append(t.Coords, c...)
		t.Vals = append(t.Vals, b.vals[e])
	}
	// Drop entries that cancelled to exactly zero.
	w := 0
	for e := 0; e < len(t.Vals); e++ {
		if t.Vals[e] == 0 {
			continue
		}
		if w != e {
			copy(t.Coords[w*n:w*n+n], t.Coords[e*n:e*n+n])
			t.Vals[w] = t.Vals[e]
		}
		w++
	}
	t.Coords = t.Coords[:w*n]
	t.Vals = t.Vals[:w]
	return t
}

func sameCoords(a, b []int32) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
